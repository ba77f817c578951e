"""Measurement primitives of the benchmark: spans, unit logs, host-speed
probes and percentiles.

Nothing here knows about Adinkras.  A workload calls the program through a
:class:`Tracer` and records each unit it completes in a :class:`PassLog`,
which also probes the host's speed between units; :func:`normalized` and
:func:`summarize` turn the logs of one run into the end-to-end metrics.
"""

from __future__ import annotations

import bisect
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter

# The tail is read at the highest rank with TAIL_BEYOND units beyond it.
TAIL_BEYOND = 10
# The host's speed is probed between units, at most every PROBE_EVERY_S.
# Times are reported as if every probe had taken PROBE_REF_S, the probe's
# time in the fast state of a shared 2-vCPU host (Python 3.11.7).
PROBE_OPS = 5_000
PROBE_EVERY_S = 0.1
PROBE_REF_S = 0.8e-3
# Units the metrics are read over at least: enough for a p75 with
# TAIL_BEYOND units beyond it.
TAIL_UNITS = 4 * TAIL_BEYOND


@dataclass(frozen=True)
class Span:
    """One call across a layer boundary; parent is an index into the span list."""

    name: str
    start: float
    end: float
    parent: int | None
    unit: int | None


class Tracer:
    """Times the benchmark's calls into the program.

    When disabled, :meth:`call` only forwards the call.  When enabled it keeps
    every span in memory; they are written out once, when the run ends.
    Failures and counters are kept either way: they are cheap, and the unit
    checks that produce them run in both modes.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self.unit: int | None = None
        self._units = 0
        self._stack: list[int] = []

    def call(self, name: str, fn, *args):
        """Run fn(*args) as span `name`; a raise counts against the layer."""
        if not self.enabled:
            try:
                return fn(*args)
            except Exception:
                self.fail(name)
                raise
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self.unit))
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args)
        except Exception:
            self.fail(name)
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.unit)

    def unit_call(self, fn, *args):
        """Run one unit as a `unit` span; the spans inside it carry its id."""
        self.unit = self._units
        self._units += 1
        try:
            return self.call("unit", fn, *args)
        finally:
            self.unit = None

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    def fail(self, name: str) -> None:
        """Charge one failure to the layer that `name` (module.function) belongs to."""
        self.counters[name.split(".")[0] + ".failed"] += 1


def self_times(spans: list[Span]) -> dict[str, float]:
    """Busy time per span name: each span's duration minus its children's."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for s, inner in zip(spans, child_time):
        out[s.name] += s.end - s.start - inner
    return dict(out)


def probe_kernel() -> int:
    """A fixed slice of dict-and-integer work like the package's, about a millisecond.

    It uses nothing from the package, so a change to the package cannot move
    it, and it creates nothing the garbage collector tracks, so its time
    follows only the speed the host gives the process.
    """
    table: dict[int, int] = {}
    for i in range(PROBE_OPS):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + i
    return len(table)


@dataclass
class PassLog:
    """What one pass over a workload's units did, and how fast the host ran.

    units holds (start, seconds, ok) per unit attempted; seconds is None when
    the unit could not even be started.  stages holds (start, seconds) of
    per-pass calls that belong to no single unit.  probes holds (time,
    seconds) of :func:`probe_kernel` runs taken between them.  errors holds
    what the program raised.
    """

    units: list[tuple[float, float | None, bool]] = field(default_factory=list)
    stages: list[tuple[float, float]] = field(default_factory=list)
    probes: list[tuple[float, float]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def work_s(self) -> float:
        """Time spent inside the program; the harness's checks are outside it."""
        units = sum(s for _, s, _ in self.units if s is not None)
        return units + sum(s for _, s in self.stages)

    def unit(self, start: float, seconds: float | None, ok: bool) -> None:
        self.units.append((start, seconds, ok))

    def stage(self, start: float, seconds: float) -> None:
        self.stages.append((start, seconds))

    def probe(self, force: bool = False) -> None:
        """Time the probe kernel if PROBE_EVERY_S has passed since the last probe."""
        now = perf_counter()
        if force or not self.probes or now - self.probes[-1][0] >= PROBE_EVERY_S:
            probe_kernel()
            self.probes.append((now, perf_counter() - now))


def normalized(logs: list[PassLog]) -> list[PassLog]:
    """The logs with every duration rescaled to a fixed host speed.

    A shared host switches, for seconds to minutes at a time, between a fast
    state and one where the same work takes about half as long again.  Each
    unit and stage is scaled by PROBE_REF_S over the mean of the probes just
    before and just after it, so a run spent in the slow state, or partly in
    it, reads about as one spent in the fast state.  The probe slows somewhat
    more than the package does, so the correction errs towards the fast side.
    """
    out = []
    for log in logs:
        at = [t for t, _ in log.probes]

        def scale(start: float, seconds: float) -> float:
            i = bisect.bisect_right(at, start) - 1
            j = bisect.bisect_left(at, start + seconds)
            near = [log.probes[k][1] for k in (i, j) if 0 <= k < len(at)]
            return seconds * PROBE_REF_S / statistics.fmean(near) if near else seconds

        out.append(
            PassLog(
                [(t, None if s is None else scale(t, s), ok) for t, s, ok in log.units],
                [(t, scale(t, s)) for t, s in log.stages],
                log.probes,
                log.errors,
            )
        )
    return out


def tail_rank(n: int) -> int:
    """1-based rank of the tail among n sorted samples.

    It is the highest rank with TAIL_BEYOND samples beyond it, or the
    median's when fewer than 2 * TAIL_BEYOND samples exist.
    """
    return max(n - TAIL_BEYOND, (n + 1) // 2)


def min_passes(units_per_pass: int) -> int:
    """Passes an untraced run makes at least.

    Metrics are read over the faster half of the passes (see
    :func:`faster_half`), so the run makes twice as many passes as it takes
    to hold TAIL_UNITS units, and at least four.
    """
    return 2 * max(2, -(-TAIL_UNITS // units_per_pass))


def faster_half(logs: list[PassLog]) -> list[PassLog]:
    """The passes that spent the least time in the program, half rounded up.

    On a shared host other tenants slow whole stretches of a run; the slower
    passes carry that noise, not a property of the program.
    """
    return sorted(logs, key=lambda log: log.work_s)[: (len(logs) + 1) // 2]


def summarize(logs: list[PassLog], level_n: int) -> dict:
    """End-to-end figures over the given passes.

    The tail percentile is the one :func:`tail_rank` gives for level_n
    units, read over all the units given; a run that fits in more passes than
    its minimum adds units beyond the tail instead of moving the tail to
    another percentile.
    """
    times = sorted(s for log in logs for _, s, _ in log.units if s is not None)
    level_rank = tail_rank(level_n)
    rank = max(1, -(-level_rank * len(times) // level_n))
    attempted = sum(len(log.units) for log in logs)
    failed = sum(1 for log in logs for _, _, ok in log.units if not ok)
    work = sum(log.work_s for log in logs)
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "units_per_s": attempted / work if work > 0 else 0.0,
        "unit_p50_ms": 1e3 * statistics.median(times) if times else 0.0,
        "unit_tail_ms": 1e3 * times[rank - 1] if times else 0.0,
        "unit_tail_pct": 100 * level_rank / level_n,
        "unit_tail_beyond": len(times) - rank,
        "timed_units": len(times),
    }
