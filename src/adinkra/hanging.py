"""Hanging gardens: reconstruct heights from a set of hooked extreme vertices.

A topology plus a set of hooks (chosen extreme vertices with prescribed
heights) determines the whole height function: in targets mode every vertex
hangs down from the hooks, hgt(v) = max over hooks s of h(s) - dist(v, s);
in sources mode it is propped up from below, hgt(v) = min of h(s) + dist(v, s).
The hook heights must respect statistics parity, every component needs at
least one hook, and two hooks must be farther apart than their height gap,
otherwise one of them would fail to be extreme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import (
    Adinkra,
    AdinkraError,
    Edge,
    Topology,
    _solved_parity,
)

__all__ = ["TARGETS", "SOURCES", "HookSet", "check_hooks", "hang", "hooks_of", "one_hooked"]

TARGETS = "targets"
SOURCES = "sources"


@dataclass(frozen=True)
class HookSet:
    """Prescribed extreme vertices: mode is targets (maxima) or sources (minima).

    Each hook is a (vertex, height) tuple of ints, kept sorted by vertex, so
    equal hook sets compare equal however given; a vertex hooked twice is refused.
    """

    mode: str
    hooks: tuple[tuple[int, int], ...]  # (vertex, height), ascending vertex

    def __post_init__(self) -> None:
        if self.mode not in (TARGETS, SOURCES):
            raise AdinkraError(f"hook mode must be targets or sources, got {self.mode!r}")
        if type(self.hooks) not in (tuple, list):
            raise AdinkraError(f"hooks must be a tuple or list, got {type(self.hooks).__name__}")
        for hook in self.hooks:
            if type(hook) is not tuple or len(hook) != 2 or type(hook[1]) is not int:
                raise AdinkraError(f"hook {hook!r} is not a (vertex, height) pair of ints")
            if type(hook[0]) is not int:  # 1.0 and True name no vertex, as in every lookup
                raise AdinkraError(f"hook references unknown vertex {hook[0]}")
        hooks = tuple(sorted(self.hooks))
        for (v, _), (w, _) in zip(hooks, hooks[1:]):
            if v == w:
                raise AdinkraError(f"vertex {v} is hooked twice")
        object.__setattr__(self, "hooks", hooks)

    @classmethod
    def from_map(cls, mode: str, hooks: Mapping[int, int]) -> "HookSet":
        return cls(mode, tuple(hooks.items()))

    def as_map(self) -> dict[int, int]:
        return dict(self.hooks)


def check_hooks(topology: Topology, hookset: HookSet) -> list[str]:
    """Validate a hook set against a topology; violations are returned as data.

    Checked: at least one hook per connected component; hook heights match
    vertex statistics (bosons even, fermions odd); and for every pair of hooks
    in one component, dist(s, t) > |h(s) - h(t)| strictly.  Hooks naming
    unknown vertices are an error, not a violation.
    """
    if not isinstance(hookset, HookSet):
        raise AdinkraError(f"hookset must be a HookSet, got {type(hookset).__name__}")
    hooks = hookset.as_map()
    for v in hooks:
        if topology._position(v) is None:
            raise AdinkraError(f"hook references unknown vertex {v}")

    report: list[str] = []
    for comp in topology.components():
        if not any(v in hooks for v in comp):
            report.append(f"component containing vertex {comp[0]} has no hook")
    for v, h in sorted(hooks.items()):
        want = topology._valise[topology._vindex[v]]
        if h % 2 != want:
            report.append(
                f"hook {v} has height {h}, but a {topology.statistics_of(v)} needs parity {want}"
            )
    items = sorted(hooks.items())
    for i, (s, hs) in enumerate(items):
        for t, ht in items[i + 1 :]:
            d = topology.distance(s, t)
            if d is None:
                continue
            if d <= abs(hs - ht):
                report.append(
                    f"hooks {s} and {t} are at distance {d} with height gap {abs(hs - ht)};"
                    " need distance > gap"
                )
    return report


def hang(
    topology: Topology,
    hookset: HookSet,
    parity: Mapping[Edge, int] | None = None,
) -> Adinkra:
    """Reconstruct the unique height function hanging from the hooks.

    Raises on hook violations.  Parity defaults to the deterministic
    odd-square solve; pass an explicit parity to keep, say, the standard cube
    signs through a pipeline.
    """
    report = check_hooks(topology, hookset)
    if report:
        raise AdinkraError("invalid hooks: " + "; ".join(report))
    hooks = hookset.as_map()
    heights: dict[int, int] = {}
    for comp in topology.components():
        tables = [(hooks[s], topology.distances_from(s)) for s in comp if s in hooks]
        for v in comp:
            if hookset.mode == TARGETS:
                heights[v] = max(h - dist[v] for h, dist in tables)
            else:
                heights[v] = min(h + dist[v] for h, dist in tables)
    if parity is None:
        parity = _solved_parity(topology)
    return Adinkra.from_maps(topology, heights, parity)


def hooks_of(adinkra: Adinkra) -> HookSet:
    """The target vertices of an Adinkra with their heights (targets mode).

    Inverse of :func:`hang`: hanging these hooks reproduces the heights
    bit-exactly.
    """
    _, targets = adinkra.extremes()
    return HookSet.from_map(TARGETS, {v: adinkra.height_of(v) for v in targets})


def one_hooked(
    topology: Topology,
    vertex: int,
    height: int,
    parity: Mapping[Edge, int] | None = None,
) -> Adinkra:
    """Hang a connected topology from a single top vertex.

    Every height is height - dist(vertex, v).  The hook height must match the
    vertex statistics parity; disconnected topologies are rejected since the
    single hook cannot reach the other components.
    """
    if len(topology.components()) != 1:
        raise AdinkraError("one-hooked hanging needs a connected topology")
    i = topology._position(vertex)
    if i is None:
        raise AdinkraError(f"hook references unknown vertex {vertex}")
    if type(height) is not int:
        raise AdinkraError(f"hook height {height!r} is not an int")
    if height % 2 != topology._valise[i]:
        raise AdinkraError(
            f"hook height {height} does not match the statistics parity of vertex {vertex}"
        )
    return hang(topology, HookSet.from_map(TARGETS, {vertex: height}), parity)
