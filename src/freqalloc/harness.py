"""Adversarial instances and the phase replay on the universal graph.

The truncated universal graph has a vertex (t, k) on each side for every
1 <= k <= t <= T, with an edge between (t, k) on one side and (t', k') on
the other exactly when k + k' <= max(t, t').  Issuing k requests to every
level-t vertex in phase t drives the static optimum to exactly t per phase,
so ``run_universal`` checks each phase's distinct frequencies against the
claimed bound floor(r*t) + lambda.

The replay runs on dense integer vertex ids: ``UniversalInstance`` serves
the allocator's ``Instance`` protocol with one ``admit`` call per vertex and
phase, for the run of its k requests, and answers its neighbour maximum
from one list per side of the largest load at each k-index.  A collision
or shortfall in mid-run ends the replay with the whole run counted in the
loads.  Its edge rule is the id ranges of ``UniversalInstance.neighbors``.

The explicit instances come from one builder that restricts the graph to a
set of vertex classes (t, k) and decides each edge with the
``UniversalGraph.adjacent`` predicate: ``UniversalGraph.materialize`` takes
every class, ``lower_bound_instance`` the families of the 10/7 argument at
the doubling scales t_i = 6*theta*lambda*2^i.  The "A:t,k" string ids name
vertices in exported graphs, request streams and collision witnesses.
The scale, its rendering and the default cap are read from ``golden``,
which the falsifier shares without loading the harness.  A construction
too large to build raises ``golden.ResourceGuardError`` (``ScaleCapError``
for a scale past its cap).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from itertools import accumulate, chain, repeat
from typing import Iterator, NamedTuple, Sequence

from .allocation import Allocator, BipartiteInstance
from .frequencies import SIDES, Side
from .golden import (SCALE_DEFAULT_CAP, GoldenNumber, ResourceGuardError,
                     _Floors, _triple, doubling_scale, doubling_scale_text)
from .systems import FSystemSpec


# the most edges UniversalGraph.materialize builds, the edge count at T = 64
MAX_EDGES = 2_839_200


class ScaleCapError(ResourceGuardError):
    def __init__(self, theta: int, lam: int, cap: int) -> None:
        formula = f"6*{theta}*{lam}*2^{theta}"
        # past i = 64 or the digit limit the scale's text is the formula itself
        scale = doubling_scale_text(theta, lam, theta)
        shown = formula if scale == formula else f"{formula} = {scale}"
        super().__init__(f"largest scale {shown} exceeds the cap {cap}")


def vertex_id(side: Side, t: int, k: int) -> str:
    return f"{side.value}:{t},{k}"


def _phase(t: int, ks: Sequence[int]) -> Iterator[str]:
    """Phase t's requests: side A's, then side B's, k to each (t, k) in the
    order of ks."""
    for side in SIDES:
        for k in ks:
            yield from repeat(vertex_id(side, t, k), k)


class UniversalGraph:
    """The truncated universal bipartite graph up to level T (lazy edges)."""

    __slots__ = ("horizon",)

    def __init__(self, horizon: int) -> None:
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.horizon = horizon

    @staticmethod
    def adjacent(t: int, k: int, t2: int, k2: int) -> bool:
        """Edge rule between opposite-side vertices."""
        return k + k2 <= max(t, t2)

    def edge_count(self) -> int:
        """Number of edges, T(T-1)(T+1)^2/6 at horizon T.

        Levels t and t2 with s = min(t, t2) contribute the index pairs with
        k + k2 <= max(t, t2), t*t2 - s(s+1)/2 of them; summing over all level
        pairs gives the closed form.
        """
        n = self.horizon
        return n * (n - 1) * (n + 1) ** 2 // 6

    def materialize(self) -> BipartiteInstance:
        """Explicit instance with all edges; guarded, they grow as T^4."""
        est = self.edge_count()
        if est > MAX_EDGES:
            raise ResourceGuardError(
                f"universal graph at T={self.horizon} has {est} edges, "
                f"over the guard of {MAX_EDGES}"
            )
        return _restricted({(t, k) for t in range(1, self.horizon + 1)
                            for k in range(1, t + 1)})[0]

    def phase_requests(self, t: int) -> Iterator[str]:
        """The k requests to each level-t vertex, in (side, k) order."""
        return _phase(t, range(1, t + 1))

    def request_stream(self) -> Iterator[str]:
        for t in range(1, self.horizon + 1):
            yield from self.phase_requests(t)


def _restricted(classes: set[tuple[int, int]]
                ) -> tuple[BipartiteInstance, Iterator[str]]:
    """The universal graph on the vertex classes (t, k) of both sides, and
    its phase-ordered request stream.  Vertices are side A's, then side
    B's, each sorted by (t, k).  ``UniversalGraph.adjacent`` only falls as
    k' grows, so a vertex's neighbours at one opposite level are a prefix
    of that level's sorted k-values, found by bisection."""
    levels: dict[int, list[int]] = {}
    for t, k in sorted(classes):
        levels.setdefault(t, []).append(k)
    names = [{t: [vertex_id(side, t, k) for k in ks]
              for t, ks in levels.items()} for side in SIDES]
    edges = chain.from_iterable(
        zip(repeat(a), names[1][t2][:bisect_left(ks2, True, key=lambda k2:
            not UniversalGraph.adjacent(t, k, t2, k2))])
        for t, ks in levels.items() for k, a in zip(ks, names[0][t])
        for t2, ks2 in levels.items())
    sides = {v: side for side, rows in zip(SIDES, names)
             for row in rows.values() for v in row}
    inst = BipartiteInstance.from_edges(list(sides), edges, sides=sides)
    return inst, (r for t, ks in levels.items() for r in _phase(t, ks))


class UniversalInstance:
    """Loads of the universal graph's vertices, by dense integer id.

    Vertex (side, t, k) has id s*N + t(t-1)/2 + k-1, where s is 0 for side
    A and 1 for side B and N = T(T+1)/2 counts one side's vertices, so a
    level's vertices are consecutive, side B follows side A, and the side
    of id v is v // N.  Tables of level and index per id are built once;
    loads are a list by id.

    Neighbour maxima are answered from one list per side of the largest
    load at each k-index, which is exact as long as requests arrive in
    nondecreasing level order (the phase schedule): then every loaded
    opposite vertex has level at most the current one, and the eligible
    partners of (t, k) are exactly the opposite indices up to t - k.
    """

    def __init__(self, graph: UniversalGraph) -> None:
        self.graph = graph
        T = graph.horizon
        self.per_side = T * (T + 1) // 2
        levels = [t for t in range(1, T + 1) for _ in range(t)]
        indices = [k for t in range(1, T + 1) for k in range(1, t + 1)]
        self._level = levels + levels
        self._index = indices + indices
        self.loads = [0] * (2 * self.per_side)
        self._by_index = ([0] * (T + 1), [0] * (T + 1))
        self._top_level = 0

    @property
    def vertices(self) -> range:
        return range(len(self.loads))

    def vertex(self, side: Side, t: int, k: int) -> int:
        """Dense id of (side, t, k); ValueError outside the graph."""
        if not (1 <= k <= t <= self.graph.horizon):
            raise ValueError(
                f"vertex {vertex_id(side, t, k)} is outside the universal graph"
            )
        return SIDES.index(side) * self.per_side + t * (t - 1) // 2 + k - 1

    def name(self, v: int) -> str:
        """The "A:t,k" id of dense vertex v."""
        return vertex_id(
            SIDES[v // self.per_side], self._level[v], self._index[v])

    def neighbors(self, v: int) -> Iterator[int]:
        t, k = self._level[v], self._index[v]
        other = (1 - v // self.per_side) * self.per_side
        for t2 in range(1, self.graph.horizon + 1):
            first = other + t2 * (t2 - 1) // 2
            yield from range(first, first + min(t2, max(t, t2) - k))

    def admit(self, v: int, n: int = 1) -> tuple[Side, int, int]:
        """The ``Instance`` protocol's admit: one level check, one raise of
        v's entry in its side's list, one maximum over the other's."""
        if n < 1:
            raise ValueError(f"a run of requests needs n >= 1, got {n}")
        loads = self.loads
        if not 0 <= v < len(loads):
            raise ValueError(f"vertex {v} is outside the universal graph")
        t = self._level[v]
        if t < self._top_level:
            raise ValueError(
                "universal replay requires nondecreasing levels; "
                f"got level {t} after {self._top_level}"
            )
        self._top_level = t
        s = v // self.per_side
        k = self._index[v]
        load = loads[v] + n
        loads[v] = load
        mine = self._by_index[s]
        if load > mine[k]:
            mine[k] = load
        # the largest opposite load at indices 1 .. t - k (index 0 holds 0)
        best = max(self._by_index[1 - s][: t - k + 1])
        return SIDES[s], load, load + best

    def independent_opt(self, phase: int) -> int:
        """Recompute the optimum of the loaded graph after a phase from the
        recorded loads and the edge rule, without reusing the allocator's
        running counter or ``admit``'s lists.

        Loaded vertices have level at most the highest level admitted, and
        those are the first ids of each side.  A phase below that level
        raises ValueError, so all of them have level <= phase.  Every loaded
        index m has a witness vertex at level phase, so the partners of a
        loaded (t, k) are exactly the opposite indices up to phase - k >= 0.
        So the optimum is the largest load at an index k plus the largest
        opposite load at an index up to phase - k, over both sides' indices;
        an unloaded k adds 0 to a partner whose own term is at least as
        large.
        """
        if phase < self._top_level:
            raise ValueError(
                f"phase {phase} is below the highest admitted level "
                f"{self._top_level}"
            )
        top = self._top_level * (self._top_level + 1) // 2
        by_index = []
        for first in (0, self.per_side):
            row = [0] * (phase + 1)
            for load, k in zip(self.loads[first : first + top], self._index):
                if load > row[k]:
                    row[k] = load
            by_index.append(row)
        prefix = [list(accumulate(row, max)) for row in by_index]
        return max(
            (by_index[s][k] + prefix[1 - s][phase - k]
             for s in (0, 1) for k in range(1, phase + 1)),
            default=0,
        )


class PhaseRecord(NamedTuple):
    t: int
    opt: int
    distinct_used: int
    bound: int
    within_bound: bool

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "opt": self.opt,
            "used": self.distinct_used,
            "bound": self.bound,
            "ok": self.within_bound,
        }


class RunReport(NamedTuple):
    system: str
    ratio: GoldenNumber
    lam: int
    phases: list[PhaseRecord]

    def all_within_bound(self) -> bool:
        return all(p.within_bound for p in self.phases)

    def to_json(self) -> dict:
        return {
            "system": self.system,
            "claims": {"r": str(self.ratio), "lambda": self.lam},
            "phases": [p.to_json() for p in self.phases],
            "all_within_bound": self.all_within_bound(),
        }


class CollisionError(Exception):
    """A universal replay met a collision or an optimum off its level."""


def run_universal(system: FSystemSpec, t_max: int) -> RunReport:
    """Replay the phase schedule on the truncated universal graph.

    Every assignment is checked against the opposite side on the fly: a
    frequency used at opposite index k' collides with a request at (t, k)
    exactly when k' <= t - k.  Any collision or size-floor shortfall aborts
    with a witness; per phase, the optimum is recomputed independently and
    the count of distinct frequencies is compared with floor(r*t) + lambda.
    Each vertex's k requests are served as one run, whose picks come as
    frequency keys from ``Allocator.request_keys`` and are checked in
    order; the records are kept by key, and only a collision message names
    the frequency.  Every vertex is fresh when its run comes, so all runs
    but those that raise t (the first at each level, on side A) take their
    keys from the allocator's per-(side, t) memo: each side's picks at t
    are made once, for the longest run, not once per vertex.
    """
    r, add = system.claimed_ratio, system.claimed_lambda
    floor_rt = _Floors(*_triple(r))
    inst = UniversalInstance(UniversalGraph(t_max))
    alloc = Allocator(inst, system)
    request_keys = alloc.request_keys
    # per side, by frequency key, the smallest k-index using the frequency
    # and its vertex
    min_index: tuple[dict[int, tuple[int, int]], ...] = ({}, {})
    report = RunReport(system=system.name, ratio=r, lam=add, phases=[])
    for t in range(1, t_max + 1):
        for s, side in enumerate(SIDES):
            mine, theirs = min_index[s], min_index[1 - s]
            first = inst.vertex(side, t, 1)
            for k in range(1, t + 1):
                v = first + k - 1
                for key in request_keys(v, k):
                    hit = theirs.get(key)
                    if hit is not None and hit[0] <= t - k:
                        raise CollisionError(
                            f"frequency {alloc._used[key]} assigned to "
                            f"{inst.name(v)} is already used at adjacent "
                            f"{inst.name(hit[1])}"
                        )
                    held = mine.get(key)
                    if held is None or k < held[0]:
                        mine[key] = (k, v)
        opt = inst.independent_opt(t)
        used = alloc.distinct_used()
        bound = floor_rt[t] + add
        report.phases.append(
            PhaseRecord(
                t=t,
                opt=opt,
                distinct_used=used,
                bound=bound,
                within_bound=used <= bound,
            )
        )
        if opt != t:
            raise CollisionError(
                f"independent optimum after phase {t} is {opt}, expected {t}"
            )
    return report


def lower_bound_instance(
    theta: int, lam: int, scale_cap: int = SCALE_DEFAULT_CAP
) -> tuple[BipartiteInstance, list[str]]:
    """The finite sub-instance of the universal graph that carries the
    doubling-recurrence argument at scales t_i = 6*theta*lambda*2^i.

    Only the vertex families (t_i, t_i), (2t_i, t_i), (3t_i, 2t_i) and
    (3t_i/2, t_i) on both sides are included (duplicates across scales are
    merged).  A largest scale past ``scale_cap`` is refused, and unformed
    once 2^theta alone exceeds it.
    """
    if theta < 1 or lam < 1:
        raise ValueError("theta and lambda must be >= 1")
    if (theta >= scale_cap.bit_length()
            or doubling_scale(theta, lam, theta) > scale_cap):
        raise ScaleCapError(theta, lam, scale_cap)
    scales = (doubling_scale(theta, lam, i) for i in range(theta + 1))
    families = {family for t in scales for family in (
        (t, t), (2 * t, t), (3 * t, 2 * t), (3 * t // 2, t))}
    inst, requests = _restricted(families)
    return inst, list(requests)


def requests_to_jsonl(requests: list[str]) -> str:
    return "".join(json.dumps({"vertex": v}) + "\n" for v in requests)
