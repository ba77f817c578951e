"""The benchmark's three workloads, each a closed loop with one unit in flight.

Every workload has ``setup(seed, tracer) -> inputs`` and
``run_pass(inputs, tracer) -> PassLog``.  Set-up generates the inputs from the
seed and computes the expected answers; a pass sends every unit once and
checks each result, so a fast wrong answer is a failed unit.

* census: enumerate, classify and close every height pattern of the 1..4-cube.
* present: present patterns as images of derivative batteries and verify them.
* pipes: real ``python -m adinkra`` processes, one or two at a time.

The expected answers of census and present come from oracles written here,
independently of the package: patterns by direct search instead of move
closure, isomorphism by a canonical XOR-translation key instead of pairwise
matching, and battery sizes from the sources of a pattern.  pipes compares
each process's output with the same work done in-process at set-up.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

from adinkra.constraints import (
    SourceSpec,
    dimension_vector,
    emit_constraints,
    format_dimension_vector,
    identify,
    kernel_orders,
    verify_presentation,
)
from adinkra.core import Adinkra, Topology, solve_edge_parity
from adinkra.cube import cube_topology, hgt0, standard_parity
from adinkra.document import deserialize, serialize
from adinkra.hanging import SOURCES, HookSet, hang
from adinkra.mutation import enumerate_family, isomorphism_classes, main_sequence
from adinkra.superspace import closure_violations, transformation_rules

from harness import PassLog, Tracer

HeightKey = tuple[int, ...]

ROOT = Path(__file__).resolve().parent.parent

# The census of the source paper: family sizes of the 1..4-cube, and the
# number of raise/lower moves among the 990 four-color patterns.
FAMILY_SIZES = {1: 2, 2: 6, 3: 38, 4: 990}
N4_MOVES = 7296
ISO_SAMPLE = 64

# Battery sizes (source counts) of the N=4 patterns `present` samples: mostly
# four-entry batteries, so that the tail, the sixth slowest unit of a pass,
# falls inside that group rather than between two groups.  The sample is drawn
# once; each seed relabels the colors of every sampled pattern.  Relabeling
# is a symmetry of the whole computation, so every seed presents different
# patterns at the same cost and the luck of the draw does not enter the
# figures.
PRESENT_N4_SOURCES = (2, 3, 4, 4, 4, 4, 4, 5)

CLI_TIMEOUT_S = 60


# ---------------------------------------------------------------------------
# independent oracles


def height_patterns(n: int) -> list[HeightKey]:
    """Every normalized height pattern on the n-cube, sorted, by direct search.

    Vertex 0 is pinned at height 0 and each later vertex tries both values
    next to its lower neighbours; normalizing shifts by an even amount so the
    minimum is 0 (a boson) or 1 (a fermion).
    """
    size = 1 << n
    heights = [0] * size
    out: list[HeightKey] = []

    def place(v: int) -> None:
        if v == size:
            low = min(heights)
            out.append(tuple(h - (low - low % 2) for h in heights))
            return
        below = [v ^ 1 << c for c in range(n) if v >> c & 1]
        for h in (heights[below[0]] - 1, heights[below[0]] + 1):
            if all(abs(h - heights[w]) == 1 for w in below):
                heights[v] = h
                place(v + 1)

    place(1)
    return sorted(out)


def extremes(n: int, key: HeightKey) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(sources, targets): strict local minima and maxima of a cube pattern."""
    src, tgt = [], []
    for v, h in enumerate(key):
        around = [key[v ^ 1 << c] for c in range(n)]
        if all(w > h for w in around):
            src.append(v)
        if all(w < h for w in around):
            tgt.append(v)
    return tuple(src), tuple(tgt)


def canonical_key(n: int, key: HeightKey) -> HeightKey:
    """Least image of a pattern under the even-weight XOR translations.

    Those translations are the color- and statistics-preserving automorphisms
    of the cube, so two patterns are isomorphic exactly when their keys agree.
    A translate of a normalized pattern on the connected cube is already
    normalized, so no renormalization is needed.
    """
    return min(
        tuple(key[v ^ t] for v in range(1 << n))
        for t in range(1 << n)
        if hgt0(t) % 2 == 0
    )


def _same_partition(classes, canon: dict[HeightKey, HeightKey]) -> bool:
    """The program's classes are exactly the canonical-key classes."""
    labels = []
    for cls in classes:
        keys = {canon.get(m.heights) for m in cls}
        if len(keys) != 1 or None in keys:
            return False
        labels.append(keys.pop())
    placed = sum(len(cls) for cls in classes)
    return placed == len(canon) and len(set(labels)) == len(labels) == len(set(canon.values()))


def _cube_inputs(tr: Tracer, n: int) -> tuple[Topology, dict]:
    topology = tr.call("cube.cube_topology", cube_topology, n)
    return topology, tr.call("cube.standard_parity", standard_parity, topology)


def relabel_colors(n: int, key: HeightKey, perm: list[int]) -> HeightKey:
    """The pattern with color c + 1 renamed perm[c] + 1 (bit c moved to bit perm[c])."""
    out = [0] * len(key)
    for v, h in enumerate(key):
        out[sum(1 << perm[c] for c in range(n) if v >> c & 1)] = h
    return tuple(out)


def _member(topology: Topology, parity: dict, key: HeightKey) -> Adinkra:
    return Adinkra(topology, key, tuple(parity[e] for e in topology.edges))


def _run_unit(log: PassLog, tr: Tracer, fn, *args):
    """Run one unit: (result, start, seconds), or None once a raise is logged as a failure."""
    log.probe()
    start = perf_counter()
    try:
        result = tr.unit_call(fn, *args)
    except Exception as exc:  # the unit failed; the run goes on
        log.unit(start, perf_counter() - start, False)
        log.errors.append(f"{type(exc).__name__}: {exc}")
        return None
    return result, start, perf_counter() - start


# ---------------------------------------------------------------------------
# census


@dataclass(frozen=True)
class CensusStage:
    """One cube of the census with its expected family and isomorphism classes."""

    n: int
    topology: Topology
    parity: dict
    keys: tuple[HeightKey, ...]
    moves: int
    canon: dict[HeightKey, HeightKey]  # pattern -> class key, for the classified ones


def census_setup(seed: int, tr: Tracer) -> list[CensusStage]:
    rng = random.Random(f"census-{seed}")
    stages = []
    for n in sorted(FAMILY_SIZES):
        topology, parity = _cube_inputs(tr, n)
        keys = height_patterns(n)
        moves = sum(len(s) + len(t) for s, t in (extremes(n, k) for k in keys))
        if len(keys) != FAMILY_SIZES[n] or (n == 4 and moves != N4_MOVES):
            raise RuntimeError(f"census oracle disagrees with the known family of the {n}-cube")
        classified = keys if n <= 3 else rng.sample(keys, ISO_SAMPLE)
        canon = {k: canonical_key(n, k) for k in classified}
        stages.append(CensusStage(n, topology, parity, tuple(keys), moves, canon))
    return stages


def _close(tr: Tracer, member: Adinkra) -> list[str]:
    rules = tr.call("superspace.transformation_rules", transformation_rules, member)
    tr.count("superspace.closure_violations.calls")
    return tr.call("superspace.closure_violations", closure_violations, rules)


def census_pass(stages: list[CensusStage], tr: Tracer) -> PassLog:
    log = PassLog()
    for st in stages:
        log.probe()
        start = perf_counter()
        try:
            family = tr.call("mutation.enumerate_family", enumerate_family, st.topology, st.parity)
            log.stage(start, perf_counter() - start)
            tr.count("mutation.enumerate_family.members", len(family.members))
            tr.count("mutation.enumerate_family.moves", len(family.moves))
            stage_ok = sorted(family.members) == list(st.keys) and len(family.moves) == st.moves
            if stage_ok:
                members = [family.members[k] for k in st.canon]
                log.probe()
                start = perf_counter()
                classes = tr.call("mutation.isomorphism_classes", isomorphism_classes, members)
                log.stage(start, perf_counter() - start)
                tr.count("mutation.isomorphism_classes.classes", len(classes))
                stage_ok = _same_partition(classes, st.canon)
            if not stage_ok:
                tr.fail("mutation")
        except Exception as exc:  # the program raised: every member of this cube fails
            log.errors.append(f"{type(exc).__name__}: {exc}")
            stage_ok = False
        if not stage_ok:
            log.units.extend([(start, None, False)] * len(st.keys))
            continue
        for key in st.keys:
            out = _run_unit(log, tr, _close, tr, family.members[key])
            if out is None:
                continue
            bad, start, seconds = out
            if bad:
                tr.fail("superspace")
            log.unit(start, seconds, not bad)
    return log


# ---------------------------------------------------------------------------
# present


@dataclass(frozen=True)
class PresentCase:
    adinkra: Adinkra
    sources: tuple[int, ...]
    equations: int  # 2^N * m(m-1)/2 for a battery of m entries


def present_setup(seed: int, tr: Tracer) -> list[PresentCase]:
    rng = random.Random(f"present-{seed}")
    cases = []
    for n in sorted(FAMILY_SIZES):
        topology, parity = _cube_inputs(tr, n)
        keys = height_patterns(n)
        if n <= 3:
            chosen = keys
        else:
            by_sources = defaultdict(list)
            for k in keys:
                by_sources[len(extremes(n, k)[0])].append(k)
            sample = random.Random("present-sample")
            chosen = [
                relabel_colors(n, k, rng.sample(range(n), n))
                for m, count in sorted(Counter(PRESENT_N4_SOURCES).items())
                for k in sample.sample(by_sources[m], count)
            ]
            chosen.append(tuple(hgt0(v) % 2 for v in range(1 << n)))  # the valise
        for key in chosen:
            src = extremes(n, key)[0]
            m = len(src)
            cases.append(
                PresentCase(_member(topology, parity, key), src, (1 << n) * m * (m - 1) // 2)
            )
    return cases


def _present(tr: Tracer, adinkra: Adinkra):
    ident = tr.call("constraints.identify", identify, adinkra)
    report = tr.call(
        "constraints.verify_presentation", verify_presentation, ident.spec, ident.kind
    )
    tr.count("constraints.verify_presentation.calls")
    tr.count("constraints.verify_presentation.equations", report.checked_equations)
    return ident, report


def present_pass(cases: list[PresentCase], tr: Tracer) -> PassLog:
    log = PassLog()
    for case in cases:
        out = _run_unit(log, tr, _present, tr, case.adinkra)
        if out is None:
            continue
        (ident, report), start, seconds = out
        ok = (
            report.ok
            and report.rederived_matches_image
            and report.checked_equations == case.equations
            and tuple(sorted(m for m, _ in ident.spec.entries)) == case.sources
        )
        if not ok:
            tr.fail("constraints")
        log.unit(start, seconds, ok)
    return log


# ---------------------------------------------------------------------------
# pipes


@dataclass(frozen=True)
class PipeUnit:
    """One CLI invocation, or a two-stage pipe, with its in-process replay.

    replay does the same work through the package's public functions and
    returns the text the CLI should print; set-up runs it once to fix the
    expected output.  stdin is the input document of a single-stage unit.
    """

    argvs: tuple[tuple[str, ...], ...]
    stdin: str | None
    replay: Callable[[Tracer], str]
    expected: str
    as_json: bool

    @property
    def label(self) -> str:
        return " | ".join(" ".join(a) for a in self.argvs)


def _write(tr: Tracer, obj) -> str:
    text = tr.call("document.serialize", serialize, obj)
    tr.count("document.serialize.bytes", len(text.encode()))
    return text


def _read(tr: Tracer, text: str):
    tr.count("document.deserialize.bytes", len(text.encode()))
    return tr.call("document.deserialize", deserialize, text)


def _report(data: dict) -> str:
    return json.dumps(data, indent=2) + "\n"


def _cube_doc(tr: Tracer, n: int) -> str:
    topology, parity = _cube_inputs(tr, n)
    heights = {v: hgt0(v) for v in topology.vertex_ids}
    adinkra = tr.call("core.Adinkra.from_maps", Adinkra.from_maps, topology, heights, parity)
    return _write(tr, adinkra)


def _family_doc(tr: Tracer, text: str) -> str:
    start = _read(tr, text).payload
    family = tr.call(
        "mutation.enumerate_family", enumerate_family, start.topology, start.parity_by_edge()
    )
    tr.count("mutation.enumerate_family.members", len(family.members))
    tr.count("mutation.enumerate_family.moves", len(family.moves))
    return _write(tr, family)


def _validate(tr: Tracer, text: str) -> str:
    return _report({"ok": True, "kind": _read(tr, text).kind})


def _hang_doc(tr: Tracer, text: str, hooks: dict[int, int]) -> str:
    topology = _read(tr, text).payload
    solved = tr.call("core.solve_edge_parity", solve_edge_parity, topology)
    hookset = HookSet.from_map(SOURCES, hooks)
    return _write(tr, tr.call("hanging.hang", hang, topology, hookset, solved.parity))


def _main_seq_doc(tr: Tracer, text: str, orbits: list[list[int]]) -> str:
    start = _read(tr, text).payload
    trace = tr.call("mutation.main_sequence", main_sequence, start, orbits)
    tr.count("mutation.main_sequence.steps", len(trace.steps))
    return _write(tr, trace)


def _verify_constraints(tr: Tracer, entries: tuple[tuple[int, int], ...]) -> str:
    system = tr.call("constraints.emit_constraints", emit_constraints, SourceSpec(3, entries))
    spec = _read(tr, _write(tr, system)).payload.spec
    report = tr.call("constraints.verify_presentation", verify_presentation, spec)
    tr.count("constraints.verify_presentation.calls")
    tr.count("constraints.verify_presentation.equations", report.checked_equations)
    return _report(
        {
            "ok": report.ok,
            "checked_equations": report.checked_equations,
            "failures": list(report.failures),
            "rederived_matches_image": report.rederived_matches_image,
        }
    )


def _dims(tr: Tracer, text: str) -> str:
    adinkra = _read(tr, text).payload
    dims = tr.call("constraints.dimension_vector", dimension_vector, adinkra)
    spec = tr.call("constraints.identify", identify, adinkra).spec
    orders = tr.call("constraints.kernel_orders", kernel_orders, spec)
    return _report(
        {
            "dimension_vector": format_dimension_vector(dims),
            "counts": list(dims),
            "kernel_orders": {str(c): mu for c, mu in sorted(orders.items())},
        }
    )


def _verify_susy(tr: Tracer, text: str) -> str:
    bad = _close(tr, _read(tr, text).payload)
    return _report({"ok": not bad, "violations": bad})


def _identify(tr: Tracer, text: str) -> str:
    ident = tr.call("constraints.identify", identify, _read(tr, text).payload)
    return _report(
        {
            "kind": ident.kind,
            "n_colors": ident.spec.n_colors,
            "entries": [{"subset": m, "shift": s} for m, s in ident.spec.entries],
            "moves": list(ident.moves),
        }
    )


SO3_ORBITS = "0;1,2,4;3,5,6;7"


def pipes_setup(seed: int, tr: Tracer) -> list[PipeUnit]:
    """Prepare every input document and the output each unit must print.

    The seed picks the hooks, the N=4 member and the N=3 battery, which
    always has three entries so every seed verifies as many equations.  The
    mix has an odd number of units, so that the median and the tail of a run
    fall inside a group of similar units rather than in the gap between the
    start-up-bound ones (about 0.1 s) and the heavier ones.
    """
    rng = random.Random(f"pipes-{seed}")
    cube3 = _cube_doc(tr, 3)
    cube4 = _cube_doc(tr, 4)
    topology8 = _write(tr, tr.call("cube.cube_topology", cube_topology, 8))
    bosons8 = [v for v in range(1 << 8) if hgt0(v) % 2 == 0]
    hooks = {v: 0 for v in rng.sample(bosons8, 4)}
    topology4, parity4 = _cube_inputs(tr, 4)
    member4 = _write(tr, _member(topology4, parity4, rng.choice(height_patterns(4))))
    topology3, parity3 = _cube_inputs(tr, 3)
    batteries3 = [k for k in height_patterns(3) if len(extremes(3, k)[0]) == 3]
    entries3 = tr.call(
        "constraints.identify", identify, _member(topology3, parity3, rng.choice(batteries3))
    ).spec.entries
    orbits = [[int(v) for v in group.split(",")] for group in SO3_ORBITS.split(";")]
    hang_args = ("hang", "--mode", "sources", *(f"--hook={v}={h}" for v, h in hooks.items()))
    entry_args = tuple(f"--entry={m}:{s}" for m, s in entries3)

    units: list[PipeUnit] = []

    def add(argvs, stdin, replay, as_json=False) -> str:
        units.append(PipeUnit(argvs, stdin, replay, replay(tr), as_json))
        return units[-1].expected

    add((("cube", "1"),), None, lambda t: _cube_doc(t, 1))
    add((("family",),), cube3, lambda t: _family_doc(t, cube3))
    family4 = add((("family",),), cube4, lambda t: _family_doc(t, cube4))
    add((("validate",),), family4, lambda t: _validate(t, family4), True)
    add((hang_args,), topology8, lambda t: _hang_doc(t, topology8, hooks))
    add((("main-seq", "--orbits", SO3_ORBITS),), cube3, lambda t: _main_seq_doc(t, cube3, orbits))
    add(
        (("constraints", "-n", "3", *entry_args), ("verify-constraints",)),
        None,
        lambda t: _verify_constraints(t, entries3),
        True,
    )
    add((("cube", "8"), ("validate",)), None, lambda t: _validate(t, _cube_doc(t, 8)), True)
    add((("dims",),), member4, lambda t: _dims(t, member4), True)
    add((("identify",),), member4, lambda t: _identify(t, member4), True)
    add((("verify-susy",),), member4, lambda t: _verify_susy(t, member4), True)
    return units


def run_cli(argvs, stdin: str | None) -> tuple[bytes, list[int]]:
    """Run `python -m adinkra` stages joined by pipes; returns stdout and exit codes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    procs: list[subprocess.Popen] = []

    def start(argv, stdin_source):
        proc = subprocess.Popen(
            [sys.executable, "-m", "adinkra", *argv],
            stdin=stdin_source,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=env,
        )
        procs.append(proc)
        return proc

    try:
        if len(argvs) == 1:
            first = start(argvs[0], subprocess.DEVNULL if stdin is None else subprocess.PIPE)
            out, _ = first.communicate(
                None if stdin is None else stdin.encode(), timeout=CLI_TIMEOUT_S
            )
        else:
            first = start(argvs[0], subprocess.DEVNULL)
            second = start(argvs[1], first.stdout)
            first.stdout.close()  # the second stage owns the read end now
            out, _ = second.communicate(timeout=CLI_TIMEOUT_S)
            first.wait(timeout=CLI_TIMEOUT_S)
        return out, [p.returncode for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
            if p.stdout is not None:
                p.stdout.close()


def _matches(unit: PipeUnit, out: str) -> bool:
    if not unit.as_json:
        return out == unit.expected
    try:
        return json.loads(out) == json.loads(unit.expected)
    except ValueError:
        return False


def _pipe(tr: Tracer, unit: PipeUnit) -> tuple[bool, float, list[int]]:
    """Run the processes, then, when tracing, the in-process replay."""
    start = perf_counter()
    out, codes = tr.call("cli.exec", run_cli, unit.argvs, unit.stdin)
    exec_s = perf_counter() - start
    ok = codes == [0] * len(codes) and _matches(unit, out.decode())
    if not ok:
        tr.fail("cli")
    if tr.enabled:
        start = perf_counter()
        replayed = unit.replay(tr)
        tr.count("cli.replay_s", perf_counter() - start)
        ok = ok and replayed == unit.expected
    return ok, exec_s, codes


def pipes_pass(units: list[PipeUnit], tr: Tracer) -> PassLog:
    log = PassLog()
    for unit in units:
        out = _run_unit(log, tr, _pipe, tr, unit)
        if out is None:
            continue
        (ok, exec_s, codes), start, _ = out
        if unit.argvs == (("cube", "1"),):
            tr.count("cli.start_s", exec_s)
        if not ok:
            log.errors.append(f"{unit.label}: exit codes {codes}, or the output differs")
        log.unit(start, exec_s, ok)
    return log


WORKLOADS = {
    "census": (census_setup, census_pass),
    "present": (present_setup, present_pass),
    "pipes": (pipes_setup, pipes_pass),
}
