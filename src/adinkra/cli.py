"""Command line front end: documents in on stdin, documents out on stdout.

Exit codes: 0 success, 1 domain failure (invalid input, failed check),
2 usage error.  Domain failures print one JSON object on stderr with an
``error`` message so pipelines can report precisely.

Each subcommand imports the modules it uses when it runs, and the constraint
batteries import the superspace engine and the mutation walk only where they
use them, so a process compiles only what its subcommand runs: ``cube`` never
loads the engine or the batteries, ``identify`` and ``dims`` never load the
engine, and ``constraints`` on given entries, ``verify-constraints`` and
``validate`` of a constraints document never load the walk.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from .core import Adinkra, AdinkraError, Topology
from .cube import (
    SCALAR,
    SPINOR,
    antipodal_quotient,
    cube_signature,
    cube_topology,
    hgt0,
    standard_parity,
)
from .document import _indented_json, deserialize, export_dot, serialize

if TYPE_CHECKING:
    from .constraints import SourceSpec

__all__ = ["main"]


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load(path: str, *kinds: str):
    doc = deserialize(_read_text(path))
    if doc.kind not in kinds:
        article = "an" if kinds[0][0] in "aeiou" else "a"
        raise AdinkraError(f"expected {article} {' or '.join(kinds)} document, got {doc.kind}")
    return doc.payload


def _topology_and_parity(path: str):
    obj = _load(path, "topology", "adinkra")
    if isinstance(obj, Adinkra):
        return obj.topology, obj.parity_by_edge()
    return obj, None


def _emit(obj) -> int:
    sys.stdout.write(serialize(obj))
    return 0


def _report(data: dict) -> None:
    sys.stdout.write(_indented_json(data) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    try:
        doc = deserialize(_read_text(args.file))
    except AdinkraError as exc:
        _report({"ok": False, "violations": [str(exc)]})
        return 1
    _report({"ok": True, "kind": doc.kind})
    return 0


def _cmd_cube(args) -> int:
    topo = cube_topology(args.n, args.kind)
    heights = {v: hgt0(v) for v in topo.vertex_ids}
    return _emit(Adinkra.from_maps(topo, heights, standard_parity(topo)))


def _cmd_quotient4(args) -> int:
    from .mutation import base_adinkra

    return _emit(base_adinkra(antipodal_quotient()))


def _parse_hooks(pairs: list[str]) -> tuple[tuple[int, int], ...]:
    hooks = []
    for item in pairs:
        vertex, sep, height = item.partition("=")
        if not sep:
            raise AdinkraError(f"hook {item!r} is not of the form VERTEX=HEIGHT")
        try:
            v, h = int(vertex), int(height)
        except ValueError:
            raise AdinkraError(f"hook {item!r} is not of the form VERTEX=HEIGHT") from None
        hooks.append((v, h))
    return tuple(hooks)


def _cmd_hang(args) -> int:
    from .hanging import HookSet, check_hooks, hang

    topo, parity = _topology_and_parity(args.file)
    hookset = HookSet(args.mode, _parse_hooks(args.hook))
    bad = check_hooks(topo, hookset)
    if bad:
        _report({"ok": False, "violations": bad})
        return 1
    return _emit(hang(topo, hookset, parity))


def _cmd_raise(args) -> int:
    from .mutation import raise_vertex

    return _emit(raise_vertex(_load(args.file, "adinkra"), args.vertex))


def _cmd_lower(args) -> int:
    from .mutation import lower_vertex

    return _emit(lower_vertex(_load(args.file, "adinkra"), args.vertex))


# the 4-cube's family is walked in a fraction of a second, the 5-cube's in minutes and gigabytes
MAX_WALK_VERTICES = 16


def _check_walk_size(topo: Topology) -> None:
    if len(topo.vertex_ids) > MAX_WALK_VERTICES:
        raise AdinkraError(f"{len(topo.vertex_ids)} vertices exceed the cap of {MAX_WALK_VERTICES} on a walked family")


def _cmd_family(args) -> int:
    from .mutation import enumerate_family

    topo, parity = _topology_and_parity(args.file)
    _check_walk_size(topo)
    return _emit(enumerate_family(topo, parity))


def _parse_orbits(text: str) -> list[list[int]]:
    try:
        return [[int(v) for v in group.split(",")] for group in text.split(";")]
    except ValueError:
        raise AdinkraError(
            f"orbits {text!r} are not of the form V,V,...;V,...;..."
        ) from None


def _cmd_main_seq(args) -> int:
    from .mutation import main_sequence

    start = _load(args.file, "adinkra")
    _check_walk_size(start.topology)
    orbits = None if args.orbits is None else _parse_orbits(args.orbits)
    return _emit(main_sequence(start, orbits))


def _cmd_identify(args) -> int:
    from .constraints import identify

    ident = identify(_load(args.file, "adinkra"))
    _report(
        {
            "kind": ident.kind,
            "n_colors": ident.spec.n_colors,
            "entries": [{"subset": m, "shift": s} for m, s in ident.spec.entries],
            "moves": list(ident.moves),
        }
    )
    return 0


def _spec_from_args(args, *kinds: str) -> tuple[SourceSpec, str]:
    from .constraints import SourceSpec, identify

    if args.entry:
        if args.n is None:
            raise AdinkraError("--entry needs -n to fix the color count")
        entries = []
        for item in args.entry:
            subset, _, shift = item.partition(":")
            try:
                entries.append((int(subset), int(shift) if shift else 0))
            except ValueError:
                raise AdinkraError(
                    f"entry {item!r} is not of the form SUBSET[:SHIFT]"
                ) from None
        return SourceSpec(args.n, tuple(entries)), args.kind
    # decoding a constraints document checks its equations against the rebuilt system
    obj = _load(args.file, *kinds)
    if isinstance(obj, Adinkra):
        ident = identify(obj)
        return ident.spec, ident.kind
    return obj.spec, obj.kind


def _cmd_constraints(args) -> int:
    from .constraints import emit_constraints

    spec, kind = _spec_from_args(args, "adinkra")
    return _emit(emit_constraints(spec, kind))


def _cmd_verify_constraints(args) -> int:
    from .constraints import verify_presentation

    spec, kind = _spec_from_args(args, "constraints", "adinkra")
    report = verify_presentation(spec, kind)
    _report(
        {
            "ok": report.ok,
            "checked_equations": report.checked_equations,
            "failures": list(report.failures),
            "rederived_matches_image": report.rederived_matches_image,
        }
    )
    return 0 if report.ok else 1


def _cmd_verify_susy(args) -> int:
    from .superspace import closure_violations, transformation_rules

    rules = transformation_rules(_load(args.file, "adinkra"))
    bad = closure_violations(rules)
    _report({"ok": not bad, "violations": bad})
    return 0 if not bad else 1


# the built-in annihilator products, named here so that building the parser
# does not load the constraint batteries
_MATRIX_PAIRS = ("doublet2", "quintet3", "triplet3")


def _cmd_grassmann_check(args) -> int:
    from .constraints import (
        N2_DOUBLET_ANNIHILATOR,
        N3_QUINTET_ANNIHILATOR,
        N3_TRIPLET_ANNIHILATOR,
        check_annihilation,
        gradient_column,
    )

    pairs = {
        "doublet2": (N2_DOUBLET_ANNIHILATOR, gradient_column(2), 2),
        "quintet3": (N3_QUINTET_ANNIHILATOR, N3_TRIPLET_ANNIHILATOR, 3),
        "triplet3": (N3_TRIPLET_ANNIHILATOR, gradient_column(3), 3),
    }
    names = _MATRIX_PAIRS if args.pair == "all" else [args.pair]
    results = {}
    ok = True
    for name in names:
        left, right, n = pairs[name]
        ce = check_annihilation(left, right, n)
        results[name] = (
            "zero" if ce is None else f"row {ce.row} ({ce.kind}) residual {ce.residual}"
        )
        ok = ok and ce is None
    _report({"ok": ok, "products": results})
    return 0 if ok else 1


def _cmd_dims(args) -> int:
    from .constraints import dimension_vector, format_dimension_vector, identify, kernel_orders

    a = _load(args.file, "adinkra")
    dims = dimension_vector(a)
    out = {"dimension_vector": format_dimension_vector(dims), "counts": list(dims)}
    if cube_signature(a.topology) is not None:
        spec = identify(a).spec
        out["kernel_orders"] = {str(c): mu for c, mu in sorted(kernel_orders(spec).items())}
    _report(out)
    return 0


def _cmd_export(args) -> int:
    sys.stdout.write(export_dot(_load(args.file, "topology", "adinkra"), name=args.name))
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_file(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", nargs="?", default="-", help="input document (default stdin)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adinkra", description="Adinkra graph and superfield toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a document and report violations")
    _add_file(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("cube", help="emit the color cube with counting heights")
    p.add_argument("n", type=int, help="number of colors")
    p.add_argument("--kind", choices=(SCALAR, SPINOR), default=SCALAR)
    p.set_defaults(func=_cmd_cube)

    p = sub.add_parser("quotient4", help="emit the four-color antipodal quotient valise")
    p.set_defaults(func=_cmd_quotient4)

    p = sub.add_parser("hang", help="rehang a topology from hook vertices")
    p.add_argument("--mode", choices=("targets", "sources"), required=True)
    p.add_argument(
        "--hook", action="append", default=[], metavar="VERTEX=HEIGHT", required=True
    )
    _add_file(p)
    p.set_defaults(func=_cmd_hang)

    p = sub.add_parser("raise", help="raise one source vertex by two")
    p.add_argument("vertex", type=int)
    _add_file(p)
    p.set_defaults(func=_cmd_raise)

    p = sub.add_parser("lower", help="lower one target vertex by two")
    p.add_argument("vertex", type=int)
    _add_file(p)
    p.set_defaults(func=_cmd_lower)

    p = sub.add_parser("family", help="enumerate the whole mutation family")
    _add_file(p)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("main-seq", help="trace the raising sequence from a start pattern")
    p.add_argument(
        "--orbits", help="orbit partition, e.g. '0;1,2,4;3,5,6;7' (default: single vertices)"
    )
    _add_file(p)
    p.set_defaults(func=_cmd_main_seq)

    p = sub.add_parser("identify", help="recover a derivative battery presenting a cube Adinkra")
    _add_file(p)
    p.set_defaults(func=_cmd_identify)

    for name, func, extra_help in (
        ("constraints", _cmd_constraints, "emit the constraint system of a battery"),
        ("verify-constraints", _cmd_verify_constraints, "check a constraint system against its battery"),
    ):
        p = sub.add_parser(name, help=extra_help)
        p.add_argument("-n", type=int, help="color count (with --entry)")
        p.add_argument(
            "--entry",
            action="append",
            default=[],
            metavar="SUBSET[:SHIFT]",
            help="battery entry as a subset bitmask with optional extra derivative order",
        )
        p.add_argument("--kind", choices=(SCALAR, SPINOR), default=SCALAR)
        _add_file(p)
        p.set_defaults(func=func)

    p = sub.add_parser("verify-susy", help="check closure of the transformation rules")
    _add_file(p)
    p.set_defaults(func=_cmd_verify_susy)

    p = sub.add_parser("grassmann-check", help="check built-in annihilator matrix products")
    p.add_argument("pair", choices=[*_MATRIX_PAIRS, "all"], nargs="?", default="all")
    p.set_defaults(func=_cmd_grassmann_check)

    p = sub.add_parser("dims", help="dimension vector (and kernel orders on cubes)")
    _add_file(p)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("export", help="write Graphviz text for a topology or Adinkra")
    p.add_argument("--name", default="adinkra", help="graph name in the DOT output")
    _add_file(p)
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AdinkraError as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "type": type(exc).__name__}) + "\n")
        return 1
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "type": "OSError"}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
