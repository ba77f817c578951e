"""Tests of the benchmark's own logic.  Run with: python -m pytest perfbench"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import run
import workloads
from harness import (
    PROBE_REF_S,
    TAIL_BEYOND,
    TAIL_UNITS,
    PassLog,
    Span,
    Tracer,
    faster_half,
    min_passes,
    normalized,
    self_times,
    summarize,
    tail_rank,
)


@pytest.mark.parametrize("n", [20, 21, 40, 110, 2072, 10000])
def test_tail_has_ten_units_beyond_it(n):
    assert n - tail_rank(n) == TAIL_BEYOND


def test_tail_of_a_short_run_is_the_median():
    assert tail_rank(19) == 10 and tail_rank(1) == 1


def test_tail_level_is_fixed_by_the_minimum_run():
    log = PassLog()
    for i in range(55):
        log.unit(float(i), 0.001 * (i + 1), True)
    two = summarize([log, log], level_n=110)
    four = summarize([log] * 4, level_n=110)
    assert two["unit_tail_pct"] == four["unit_tail_pct"] == pytest.approx(100 * 100 / 110)
    assert two["unit_tail_beyond"] == TAIL_BEYOND
    assert four["unit_tail_beyond"] == 2 * TAIL_BEYOND


@pytest.mark.parametrize("per_pass", [11, 55, 1036])
def test_faster_half_of_the_minimum_run_holds_a_tail(per_pass):
    k = min_passes(per_pass)
    assert k >= 4 and per_pass * (k // 2) >= TAIL_UNITS


def test_faster_half_keeps_the_quickest_passes():
    logs = [PassLog(stages=[(0.0, w)]) for w in (3.0, 1.0, 2.0, 5.0, 4.0)]
    assert [log.work_s for log in faster_half(logs)] == [1.0, 2.0, 3.0]


def test_normalized_rescales_to_the_reference_speed():
    fast, slow = PROBE_REF_S, 1.5 * PROBE_REF_S
    log = PassLog(probes=[(0.0, fast), (1.0, fast), (2.0, slow), (3.0, slow)])
    log.unit(0.1, 0.5, True)  # between two fast probes
    log.unit(2.1, 0.75, True)  # between two slow probes
    log.stage(1.1, 0.6)  # between a fast and a slow probe
    (out,) = normalized([log])
    assert [s for _, s, _ in out.units] == pytest.approx([0.5, 0.5])
    assert out.stages[0][1] == pytest.approx(0.6 / 1.25)


def test_failed_ratio_counts_wrong_answers():
    log = PassLog()
    log.unit(0.0, 0.5, True)
    log.unit(0.5, 0.0001, False)  # fast but wrong
    log.unit(0.6, None, False)  # never ran
    out = summarize([log], level_n=3)
    assert out["attempted"] == 3 and out["failed"] == 2
    assert out["failed_ratio"] == pytest.approx(2 / 3)


def test_corrupted_expected_family_fails_its_units():
    stages = workloads.census_setup(1, Tracer(False))[:3]
    corrupt = replace(stages[1], moves=stages[1].moves + 1)
    tr = Tracer(False)
    out = summarize([workloads.census_pass([stages[0], corrupt, stages[2]], tr)], 46)
    assert out["failed"] == workloads.FAMILY_SIZES[2]
    assert tr.counters["mutation.failed"] == 1


def test_fast_wrong_program_answer_is_a_failure(monkeypatch):
    stages = workloads.census_setup(1, Tracer(False))[:3]
    monkeypatch.setattr(workloads, "closure_violations", lambda rules: ["fake"])
    tr = Tracer(False)
    out = summarize([workloads.census_pass(stages, tr)], 1)
    assert out["failed_ratio"] == 1.0
    assert tr.counters["superspace.failed"] == out["attempted"] == 46


def test_wrong_presentation_is_a_failure():
    cases = workloads.present_setup(1, Tracer(False))[:8]
    cases[-1] = replace(cases[-1], equations=cases[-1].equations + 1)
    out = summarize([workloads.present_pass(cases, Tracer(False))], 1)
    assert out["failed"] == 1


def test_census_oracle_counts():
    assert [len(workloads.height_patterns(n)) for n in (1, 2, 3, 4)] == [2, 6, 38, 990]
    keys3 = workloads.height_patterns(3)
    assert len({workloads.canonical_key(3, k) for k in keys3}) == 14


@pytest.mark.parametrize("setup", [workloads.census_setup, workloads.present_setup])
def test_same_seed_same_inputs(setup):
    def fingerprint(seed):
        inputs = setup(seed, Tracer(False))
        if setup is workloads.census_setup:
            return [tuple(st.canon) for st in inputs]
        return [case.adinkra.heights for case in inputs]

    assert fingerprint(3) == fingerprint(3)
    assert fingerprint(3) != fingerprint(4)


def test_same_seed_same_pipe_inputs():
    def fingerprint(seed):
        return [(u.argvs, u.stdin, u.expected) for u in workloads.pipes_setup(seed, Tracer(False))]

    first = fingerprint(5)
    assert first == fingerprint(5)
    assert first != fingerprint(6)


def test_self_time_subtracts_children():
    spans = [
        Span("unit", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 5.0, 6.0, 0, 0),
        Span("a", 6.0, 7.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx({"unit": 5.0, "a": 4.0, "b": 1.0})


def test_tracer_records_parents_and_failures():
    tr = Tracer(True)

    def inner():
        return tr.call("mutation.x", lambda: 1)

    assert tr.unit_call(inner) == 1
    with pytest.raises(ZeroDivisionError):
        tr.call("core.y", lambda: 1 / 0)
    unit, child, bad = tr.spans
    assert (unit.name, unit.parent, child.parent, child.unit) == ("unit", None, 0, 0)
    assert bad.unit is None and tr.counters["core.failed"] == 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
