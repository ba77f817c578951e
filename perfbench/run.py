"""Run one workload of the adinkra benchmark and print its metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Set-up runs first (several times without --trace, and the median is
reported; once with it), then whole passes over the workload's units run
until --seconds have gone by and at least harness.min_passes of them.  Every
unit's result is checked.  The last line of standard output is one JSON
object.  With --trace 0 it carries the end-to-end metrics, with times scaled
to a fixed host speed (harness.normalized) and read over the faster half of
the passes.  With --trace 1 an untraced warm-up pass is followed by
alternating traced and untraced passes, and it carries the per-layer metrics
of the traced ones.  A fuller record, with the seed, commit, Python version
and processor count, goes to perfbench/out/, and with --trace 1 so do the
spans.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from harness import PassLog, Tracer, faster_half, min_passes, normalized, self_times, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up is repeated at least SETUP_MIN times and until SETUP_SECONDS have
# gone by, so that a short set-up still gets a steady median.
SETUP_MIN = 3
SETUP_SECONDS = 2.0
SETUP_MAX = 25

END_TO_END = (
    ("setup_s", "s"),
    ("units_per_s", "1/s"),
    ("unit_p50_ms", "ms"),
    ("unit_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

LAYERS = ("core", "cube", "hanging", "mutation", "superspace", "constraints", "document", "cli")

# Per-layer figures are per set-up plus one traced pass: busy seconds are
# span self times, the rest are counts taken at the same boundaries.
PER_LAYER = (
    ("cube.cube_topology.busy_s", "s"),
    ("core.solve_edge_parity.busy_s", "s"),
    ("hanging.hang.busy_s", "s"),
    ("mutation.enumerate_family.busy_s", "s"),
    ("mutation.enumerate_family.members", "count"),
    ("mutation.enumerate_family.moves", "count"),
    ("mutation.enumerate_family.new_member_ratio", "ratio"),
    ("mutation.isomorphism_classes.busy_s", "s"),
    ("mutation.isomorphism_classes.classes", "count"),
    ("mutation.main_sequence.busy_s", "s"),
    ("mutation.main_sequence.steps", "count"),
    ("superspace.transformation_rules.busy_s", "s"),
    ("superspace.closure_violations.busy_s", "s"),
    ("superspace.closure_violations.calls", "count"),
    ("constraints.identify.busy_s", "s"),
    ("constraints.emit_constraints.busy_s", "s"),
    ("constraints.verify_presentation.busy_s", "s"),
    ("constraints.verify_presentation.calls", "count"),
    ("constraints.verify_presentation.equations", "count"),
    ("document.serialize.busy_s", "s"),
    ("document.serialize.bytes", "bytes"),
    ("document.deserialize.busy_s", "s"),
    ("document.deserialize.bytes", "bytes"),
    ("cli.start_s", "s"),
    ("cli.exec_s", "s"),
    ("cli.overhead_s", "s"),
    *((f"{layer}.failed", "count") for layer in LAYERS),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
)


def commit_id() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: ") :]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def layer_metrics(setup_tracer, traced, all_tracers, work_untraced, work_traced) -> dict:
    """PER_LAYER values from one traced set-up and the mean traced pass."""
    busy: Counter[str] = Counter(self_times(setup_tracer.spans))
    counts: Counter[str] = Counter(setup_tracer.counters)
    for tr in traced:
        for name, seconds in self_times(tr.spans).items():
            busy[name] += seconds / len(traced)
        for name, n in tr.counters.items():
            counts[name] += n / len(traced)
    failed = Counter()
    for tr in all_tracers:
        failed.update({k: v for k, v in tr.counters.items() if k.endswith(".failed")})
    plain = statistics.median(work_untraced)
    overhead = statistics.median(work_traced) - plain
    moves = counts["mutation.enumerate_family.moves"]
    derived = {
        "mutation.enumerate_family.new_member_ratio": (
            counts["mutation.enumerate_family.members"] / moves if moves else 0.0
        ),
        "cli.exec_s": busy["cli.exec"],
        "cli.overhead_s": busy["cli.exec"] - counts["cli.replay_s"],
        "trace.overhead_s": overhead,
        "trace.overhead_ratio": overhead / plain if plain else 0.0,
        "trace.spans": sum(len(tr.spans) for tr in traced) / len(traced),
    }
    out = {}
    for name, _ in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith(".busy_s"):
            out[name] = busy[name[: -len(".busy_s")]]
        elif name.endswith(".failed"):
            out[name] = failed[name]
        else:
            out[name] = counts[name]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("census", "present", "pipes"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "adinkra" / "__init__.py").is_file():
        sys.stderr.write(f"error: the adinkra package is missing from {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    setup, run_pass = WORKLOADS[args.workload]
    traced_run = bool(args.trace)

    setup_log = PassLog()  # each set-up is a stage, between probes of the host
    while True:
        setup_tracer = Tracer(enabled=traced_run)
        setup_log.probe(force=True)
        start = perf_counter()
        inputs = setup(args.seed, setup_tracer)
        setup_log.stage(start, perf_counter() - start)
        setup_log.probe(force=True)
        n, spent = len(setup_log.stages), setup_log.work_s
        if traced_run or (n >= SETUP_MIN and spent >= SETUP_SECONDS) or n == SETUP_MAX:
            break

    # A traced run starts with an untraced warm-up pass, kept out of the
    # overhead comparison, then alternates traced and untraced passes.
    if traced_run:
        kinds = itertools.chain(["warm-up"], itertools.cycle(["traced", "untraced"]))
    else:
        kinds = itertools.repeat("untraced")
    logs: dict[str, list] = {"warm-up": [], "untraced": [], "traced": []}
    tracers: dict[str, list] = {"warm-up": [], "untraced": [], "traced": []}
    start = perf_counter()
    for kind in kinds:
        gc.collect()  # every pass starts from the same collector state
        tr = Tracer(enabled=kind == "traced")
        log = run_pass(inputs, tr)
        log.probe(force=True)
        logs[kind].append(log)
        tracers[kind].append(tr)
        if traced_run:
            done = logs["traced"] and logs["untraced"]
        else:
            done = len(logs["untraced"]) >= min_passes(len(logs["untraced"][0].units))
        if done and perf_counter() - start >= args.seconds:
            break

    setup_norm, *untraced = normalized([setup_log, *logs["untraced"]])
    per_pass = len(untraced[0].units)
    level_n = per_pass * min_passes(per_pass) // 2
    plain = summarize(faster_half(untraced), level_n)
    raw = summarize(faster_half(logs["untraced"]), level_n)
    all_logs = [log for kind_logs in logs.values() for log in kind_logs]
    overall = summarize(all_logs, per_pass)
    who = resource.RUSAGE_CHILDREN if args.workload == "pipes" else resource.RUSAGE_SELF
    e2e = {
        "setup_s": statistics.median(s for _, s in setup_norm.stages),
        "units_per_s": plain["units_per_s"],
        "unit_p50_ms": plain["unit_p50_ms"],
        "unit_tail_ms": plain["unit_tail_ms"],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    if traced_run:
        layers = layer_metrics(
            setup_tracer,
            tracers["traced"],
            [setup_tracer, *(tr for kind_trs in tracers.values() for tr in kind_trs)],
            [log.work_s for log in logs["untraced"]],
            [log.work_s for log in logs["traced"]],
        )
        reported = [(name, unit, layers[name]) for name, unit in PER_LAYER]
    else:
        reported = [(name, unit, e2e[name]) for name, unit in END_TO_END]

    errors = [e for log in all_logs for e in log.errors]
    for e in errors[:10]:
        sys.stderr.write(f"unit error: {e}\n")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_id(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "passes": {kind: len(kind_logs) for kind, kind_logs in logs.items()},
        "setup_s": [s for _, s in setup_log.stages],
        "raw": {k: raw[k] for k in ("units_per_s", "unit_p50_ms", "unit_tail_ms")},
        "end_to_end": {
            **e2e,
            "failed_ratio": overall["failed_ratio"],
            **{k: plain[k] for k in ("unit_tail_pct", "unit_tail_beyond", "timed_units")},
        },
        "attempted": overall["attempted"],
        "failed": overall["failed"],
        "per_layer": layers if traced_run else None,
        "errors": errors[:100],
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if traced_run:
        spans = [
            {"tracer": i, **dataclasses.asdict(span)}
            for i, tr in enumerate([setup_tracer, *tracers["traced"]])
            for span in tr.spans
        ]
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    print(f"{args.workload} seed {args.seed} passes {record['passes']} commit {record['commit']}")
    for name, unit, value in reported:
        print(f"  {name:<46} {value:>16.6f} {unit}")
    if not traced_run:
        print(f"  {'failed_ratio':<46} {overall['failed_ratio']:>16.6f} ratio")
        print(
            f"  (tail at p{plain['unit_tail_pct']:.2f} of {plain['timed_units']} units,"
            f" {plain['unit_tail_beyond']} beyond it)"
        )
    correct = overall["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": overall["attempted"],
                "failed": overall["failed"],
                "metrics": {name: {"value": value, "unit": unit} for name, unit, value in reported},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
