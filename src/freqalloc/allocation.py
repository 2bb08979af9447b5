"""Bipartite instances, the static optimum, and the incremental allocator.

On a bipartite graph the minimum number of frequencies for a load vector is
the maximum load sum over an edge (extended here by the maximum single
vertex load, which covers vertices without neighbours).  The incremental
allocator serves requests one at a time by drawing, for a request at a
side-c vertex with new load k while the running optimum is t, the smallest
unused frequency of the system's (c, t, k) set (first fit in canonical
order); the size floor of a sound system guarantees one exists, and
cross-side disjointness guarantees neighbours never share.  First fit is
found band by band: each vertex keeps one next-free union-find over the
keys of the frequencies it holds, so a request costs O(bands * log k)
amortised rather than a canonical scan of O(k).  That union-find is the only
record of a vertex's frequencies, and one check over ``neighbors`` serves
``assignment_valid`` and ``validate="full"``.  ``Allocator.request`` serves
one request and returns the frequency picked; ``Allocator.request_keys``
serves a run of requests at one vertex, admitted with one ``admit`` call,
and returns the picked keys.  Both pick each unit through one ``_pick``.
If a pick raises in mid-run, the loads already count the whole run, so the
allocator is left inconsistent, and every caller takes the error as the
end of its replay.  The allocator builds each frequency once, on the
first pick of its key, into a map from key to frequency, which also counts
the distinct frequencies used and names those of ``assignment_sets``.

The allocator reads an instance only through the ``Instance`` protocol.
``BipartiteInstance`` implements it over explicit adjacency and string ids,
``harness.UniversalInstance`` over dense integer ids and the lazy edge rule
of the universal graph.  ``BipartiteInstance.from_edges`` two-colours a
graph into its ``sides``.  The errors raised here are defined in ``golden``.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict, deque
from typing import Any, Hashable, Iterable, Optional, Protocol, Sequence

from .frequencies import KEY_BY_RANK, Frequency, FrequencySet, PoolTag, Side
from .golden import AllocationError, BudgetExceededError, NotBipartiteError
from .systems import FSystemSpec


# the largest total load brute_force_opt searches unless told otherwise
BRUTE_FORCE_DEFAULT_BUDGET = 10


def _colour(
    vertices: Sequence[str], adjacency: dict[str, Sequence[str]]
) -> tuple[dict[str, Side], dict[str, str]]:
    """Two-colour each component by BFS, deterministic for a fixed id order:
    each vertex's side, and its component root.

    The lowest-id vertex of each component (isolated vertices included)
    gets side A.  An odd cycle raises NotBipartiteError with a witness.
    """
    sides: dict[str, Side] = {}
    roots: dict[str, str] = {}
    parents: dict[str, Optional[str]] = {}
    for root in sorted(vertices):
        if root in sides:
            continue
        sides[root] = Side.A
        roots[root] = root
        parents[root] = None
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in sorted(adjacency.get(u, ())):
                if w not in sides:
                    sides[w] = sides[u].other
                    roots[w] = root
                    parents[w] = u
                    queue.append(w)
                elif sides[w] is sides[u]:
                    raise NotBipartiteError(_odd_cycle(u, w, parents))
    return sides, roots


def _odd_cycle(
    u: str, w: str, parents: dict[str, Optional[str]]
) -> list[str]:
    path_u = _root_path(u, parents)
    path_w = _root_path(w, parents)
    shared = 0
    while (
        shared < len(path_u)
        and shared < len(path_w)
        and path_u[shared] == path_w[shared]
    ):
        shared += 1
    pivot = path_u[shared - 1]
    return list(reversed(path_u[shared:])) + [pivot] + path_w[shared:]


def _root_path(v: str, parents: dict[str, Optional[str]]) -> list[str]:
    path = [v]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])  # type: ignore[arg-type]
    path.reverse()
    return path


class BipartiteInstance:
    __slots__ = ("vertices", "adjacency", "sides", "loads")

    def __init__(self, vertices: tuple[str, ...],
                 adjacency: dict[str, tuple[str, ...]],
                 sides: dict[str, Side]) -> None:
        self.vertices = vertices
        self.adjacency = adjacency
        self.sides = sides
        self.loads = dict.fromkeys(vertices, 0)

    @classmethod
    def from_edges(
        cls,
        vertices: Iterable[str],
        edges: Iterable[tuple[str, str]],
        sides: Optional[dict[str, Side]] = None,
    ) -> "BipartiteInstance":
        verts = tuple(dict.fromkeys(vertices))
        known = set(verts)
        adjacency: dict[str, set[str]] = {v: set() for v in verts}
        for u, w in edges:
            if u not in known or w not in known:
                raise ValueError(f"edge ({u}, {w}) references an unknown vertex")
            if u == w:
                raise NotBipartiteError([u, u])
            adjacency[u].add(w)
            adjacency[w].add(u)
        adj = {v: tuple(sorted(adjacency[v])) for v in verts}
        computed, root = _colour(verts, adj)
        if sides:
            for v in sides:
                if v not in known:
                    raise ValueError(f"side given for unknown vertex {v}")
            # honour given labels by flipping whole components; a conflict
            # means the labels cannot be completed into any 2-colouring
            flip: dict[str, bool] = {}
            for v, s in sides.items():
                want_flip = computed[v] is not s
                if flip.setdefault(root[v], want_flip) != want_flip:
                    raise ValueError(
                        f"given sides are inconsistent with the edges near {v}"
                    )
            computed = {
                v: computed[v].other if flip.get(root[v]) else computed[v]
                for v in verts
            }
        return cls(vertices=verts, adjacency=adj, sides=computed)

    @classmethod
    def from_json(cls, doc: Any) -> "BipartiteInstance":
        """Read {"vertices": [{"id": str, "side": "A" | "B" | null}, ...],
        "edges": [[str, str], ...]}; a document of another shape, or one
        listing a vertex id twice, raises ValueError."""
        if not isinstance(doc, dict):
            raise ValueError("a graph is an object with vertex and edge lists")
        entries = doc.get("vertices", [])
        pairs = doc.get("edges", [])
        if not isinstance(entries, list) or not isinstance(pairs, list):
            raise ValueError("'vertices' and 'edges' must be lists")
        vertices = []
        listed = set()
        sides = {}
        for entry in entries:
            if not isinstance(entry, dict):
                raise ValueError(f"vertex {entry!r} is not an object")
            if "id" not in entry:
                raise ValueError(f"vertex {entry!r} has no 'id'")
            vid = entry["id"]
            if not isinstance(vid, str):
                raise ValueError(f"vertex id {vid!r} is not a string")
            if vid in listed:
                raise ValueError(f"vertex id {vid!r} is listed twice")
            listed.add(vid)
            vertices.append(vid)
            if "side" in entry and entry["side"] is not None:
                sides[vid] = Side(entry["side"])
        edges = []
        for edge in pairs:
            if not (
                isinstance(edge, list)
                and len(edge) == 2
                and all(isinstance(x, str) for x in edge)
            ):
                raise ValueError(f"edge {edge!r} is not a pair of vertex ids")
            edges.append((edge[0], edge[1]))
        return cls.from_edges(vertices, edges, sides=sides or None)

    def to_json(self) -> dict:
        # each edge once, at its endpoint listed first: adjacency holds no
        # repeats and no self-loops
        position = {v: i for i, v in enumerate(self.vertices)}
        edges = [[u, w] for i, u in enumerate(self.vertices)
                 for w in self.adjacency[u] if position[w] > i]
        return {
            "vertices": [
                {"id": v, "side": self.sides[v].value} for v in self.vertices
            ],
            "edges": edges,
        }

    def neighbors(self, v: str) -> tuple[str, ...]:
        return self.adjacency[v]

    def admit(self, v: str, n: int = 1) -> tuple[Side, int, int]:
        """Add n units of load at v; return v's side, its new load, and that
        load plus the largest neighbour load (a lone vertex counts alone)."""
        if n < 1:
            raise ValueError(f"a run of requests needs n >= 1, got {n}")
        loads = self.loads
        lv = loads[v] + n
        loads[v] = lv
        best = 0
        for w in self.adjacency[v]:
            lw = loads[w]
            if lw > best:
                best = lw
        return self.sides[v], lv, lv + best


def static_opt(instance: BipartiteInstance) -> int:
    """Minimum number of frequencies for the instance's load vector."""
    best = max(instance.loads.values(), default=0)
    for u in instance.vertices:
        lu = instance.loads[u]
        for w in instance.adjacency[u]:
            s = lu + instance.loads[w]
            if s > best:
                best = s
    return best


def static_allocate(instance: BipartiteInstance) -> dict[str, FrequencySet]:
    """Closed-form optimal assignment: side A counts up from 1, side B
    counts down from the optimum, so edge sums never overlap."""
    omega = static_opt(instance)
    out: dict[str, FrequencySet] = {}
    for v in instance.vertices:
        lv = instance.loads[v]
        if lv == 0:
            out[v] = FrequencySet()
        elif instance.sides[v] is Side.A:
            out[v] = FrequencySet([(PoolTag.PLAIN, 1, lv + 1)])
        else:
            out[v] = FrequencySet([(PoolTag.PLAIN, omega - lv + 1, omega + 1)])
    return out


def assignment_valid(
    instance: BipartiteInstance, assignment: dict[str, FrequencySet]
) -> bool:
    """Each vertex holds exactly its load and no edge shares a frequency."""
    return _assignment_fault(instance, assignment, instance.loads) is None


def _assignment_fault(
    instance: Instance,
    assignment: dict[Any, FrequencySet],
    loads: Any,
    context: str = "",
) -> Optional[str]:
    """The first vertex whose set size is not its entry of loads, else the
    first edge sharing a frequency (context appended), as a message; None if
    valid."""
    empty = FrequencySet()
    for v in instance.vertices:
        held = len(assignment.get(v, empty))
        if held != loads[v]:
            return f"vertex {v} holds {held} frequencies for load {loads[v]}"
    for u in instance.vertices:
        su = assignment.get(u, empty)
        for w in instance.neighbors(u):
            if u < w and not su.isdisjoint(sw := assignment.get(w, empty)):
                return f"edge ({u}, {w}) shares {su & sw!r}{context}"
    return None


def brute_force_opt(
    instance: BipartiteInstance, budget_cap: int = BRUTE_FORCE_DEFAULT_BUDGET
) -> int:
    """Exact optimum by exhaustive search; independent of static_opt.

    Tries palette sizes upward from the largest single load, assigning each
    vertex a combination of palette frequencies disjoint from its already
    assigned neighbours.  Declines instances whose total load exceeds the
    budget cap.
    """
    total = sum(instance.loads.values())
    if total > budget_cap:
        raise BudgetExceededError(
            f"total load {total} exceeds the search budget {budget_cap}"
        )
    if total == 0:
        return 0
    order = [v for v in sorted(instance.vertices) if instance.loads[v] > 0]

    def feasible(m: int) -> bool:
        palette = range(1, m + 1)

        def place(i: int, chosen: dict[str, frozenset[int]]) -> bool:
            if i == len(order):
                return True
            v = order[i]
            forbidden: set[int] = set()
            for w in instance.adjacency[v]:
                forbidden |= chosen.get(w, frozenset())
            allowed = [f for f in palette if f not in forbidden]
            need = instance.loads[v]
            if len(allowed) < need:
                return False
            for combo in itertools.combinations(allowed, need):
                chosen[v] = frozenset(combo)
                if place(i + 1, chosen):
                    return True
            del chosen[v]
            return False

        return place(0, {})

    m = max(instance.loads.values())
    while not feasible(m):
        m += 1
    return m


def _first_free(next_free: dict[int, int], i: int) -> int:
    """The first frequency key at or past i, in steps of i's pool scale,
    that is not a key of next_free.

    next_free maps each held key to a key of the same pool at or below the
    next free one above it; the lookup points every key it passes at the
    answer (path compression), which rewrites existing keys only.
    """
    j = next_free.get(i)
    if j is None:
        return i
    path = [i]
    while (nxt := next_free.get(j)) is not None:
        path.append(j)
        j = nxt
    for p in path:
        next_free[p] = j
    return j


class Instance(Protocol):
    """What the Allocator reads of an instance: one ``admit`` call per run of
    requests at a vertex, and for the validation modes only, ``neighbors``,
    ``vertices`` and ``loads`` (indexable by vertex: a dict by id or a list
    by dense id, either with ``copy``).
    """

    vertices: Iterable[Any]
    loads: Any

    def admit(self, v: Any, n: int = 1) -> tuple[Side, int, int]:
        """Add n units of load at v (ValueError for n < 1); return v's side,
        its new load, and the running-optimum candidate: that load plus the
        largest neighbour load.  With no self-loops the neighbour loads do
        not move during the run, so the candidate of its j-th unit is the
        returned one less n - j."""
        ...

    def neighbors(self, v: Any) -> Iterable[Any]: ...


class Allocator:
    """Sequential request server built from any F-system.

    Tracks the running optimum t (largest edge load sum, floored by the
    largest single load), and answers the k-th request at a vertex with the
    smallest frequency of the (side, t, k) set not yet used there, in
    canonical order: by key (first fit).

    Each vertex holds one next-free union-find: a dict whose keys are
    exactly the keys of the frequencies the vertex holds.  For each band
    (pool, lo, hi) of the set, one lookup gives the first free key at or
    past lo's, a candidate when it is below hi's; the pick is the smallest
    candidate.  With path compression a lookup is amortised O(log k), so a
    request costs O(bands * log k) where a scan of the set in canonical
    order costs O(k).  A pick also points its band's first key past itself,
    so most lookups end there or one hop from it, and only longer chains
    walk the union-find.

    ``request(v)`` serves one request and returns the frequency picked;
    ``request_keys(v, n)`` serves a run of n requests at v with one
    ``admit`` call and returns the picked keys, which is all a caller
    keeping its own records by key needs.  Both pick each unit through
    ``_pick``, so a run picks what n single requests would.  The first
    pick of a key builds its ``Frequency`` (checking its index) into a map
    from key to frequency; ``request`` looks the pick up there,
    ``distinct_used`` is the map's size, and ``assignment_sets`` reads each
    held key's pool and index from it.  The map holds one entry per
    distinct frequency used.

    With ``validate="neighbors"``, and only then, a map from each key to the
    vertices holding it refuses a pick that a neighbour holds, in one set
    test; the union-finds stay the only record of a vertex's frequencies.
    """

    def __init__(
        self,
        instance: Instance,
        system: FSystemSpec,
        *,
        validate: str = "none",
    ) -> None:
        if validate not in ("none", "neighbors", "full"):
            raise ValueError(f"unknown validate mode {validate!r}")
        self.instance = instance
        self.system = system
        self.validate = validate
        self.t = 0
        # vertex -> next-free union-find over keys; its keys are the keys of
        # the vertex's frequencies, the only record of them
        self._next_free: dict[Hashable, dict[int, int]] = {}
        # validate="neighbors" only: key -> the vertices holding it
        self._holders: defaultdict[int, set[Hashable]] = defaultdict(set)
        # key -> its frequency, for every key picked so far
        self._used: dict[int, Frequency] = {}

    def request(self, v: Hashable) -> Frequency:
        """Serve one request at v and return the frequency picked."""
        side, k, cand = self.instance.admit(v)
        if cand > self.t:
            self.t = cand
        next_free = self._next_free.get(v)
        if next_free is None:
            next_free = self._next_free[v] = {}
        return self._used[self._pick(v, next_free, side, k)]

    def request_keys(self, v: Hashable, n: int) -> list[int]:
        """Serve a run of n requests at v, admitted in one call, and return
        the keys of the frequencies picked, in order."""
        side, load, cand = self.instance.admit(v, n)
        # the largest neighbour load, fixed for the run
        partner = cand - load
        next_free = self._next_free.get(v)
        if next_free is None:
            next_free = self._next_free[v] = {}
        pick = self._pick
        keys = []
        for k in range(load - n + 1, load + 1):
            if partner + k > self.t:
                self.t = partner + k
            keys.append(pick(v, next_free, side, k))
        return keys

    def _pick(
        self, v: Hashable, next_free: dict[int, int], side: Side, k: int
    ) -> int:
        """Pick the first free key of the (side, t, k) set at v, whose
        union-find is next_free, record it, validate, and return it."""
        fs = self.system.sets(side, self.t, k)
        keys = KEY_BY_RANK
        best = best_first = best_scale = best_lo = 0
        best_pool: Optional[PoolTag] = None
        for pool, lo, hi in fs.bands:
            scale, offset = keys[pool.rank]
            first = scale * lo + offset
            # first if free, else the key it points at if that one is free:
            # _first_free's answer without its call
            key = next_free.get(first, first)
            if key in next_free:
                key = _first_free(next_free, first)
            if key < scale * hi + offset and (best_pool is None or key < best):
                best, best_first, best_scale = key, first, scale
                best_pool, best_lo = pool, lo
        if best_pool is None:
            raise AllocationError(
                f"system {self.system.name!r} offers only {len(fs)} frequencies "
                f"for side {side}, t={self.t}, k={k}; the size floor requires {k}"
            )
        used = self._used
        pick = used.get(best)
        if pick is None:
            # keys map to (pool, index) one to one, so the first pick of a
            # key checks its index for every later one
            index = best_lo + (best - best_first) // best_scale
            if index < 1:
                raise ValueError(f"frequency index must be >= 1, got {index}")
            pick = used[best] = Frequency._raw(best_pool, index)
        # the band's keys up to the pick are all held now, so its first key
        # may point past the pick
        next_free[best] = next_free[best_first] = best + best_scale
        if self.validate == "neighbors":
            holders = self._holders[best]
            if not holders.isdisjoint(self.instance.neighbors(v)):
                w = next(w for w in self.instance.neighbors(v) if w in holders)
                raise AllocationError(
                    f"frequency {pick} assigned to {v} is already used at "
                    f"adjacent {w}"
                )
            holders.add(v)
        elif self.validate == "full":
            # v's load already counts the rest of its run; v holds k so far
            loads = self.instance.loads.copy()
            loads[v] = k
            context = f" after assigning {pick} to {v}"
            fault = _assignment_fault(
                self.instance, self.assignment_sets(), loads, context
            )
            if fault is not None:
                raise AllocationError(fault)
        return best

    def distinct_used(self) -> int:
        return len(self._used)

    def assignment_sets(self) -> dict[Hashable, FrequencySet]:
        """Each served vertex's frequencies: the ones its union-find's keys
        name in the map of used keys."""
        used = self._used
        out = {}
        for v, next_free in self._next_free.items():
            held = [used[key] for key in next_free]
            if held:
                out[v] = FrequencySet((f.pool, f.index, f.index + 1) for f in held)
        return out


def assignment_to_json(assignment: dict[str, FrequencySet]) -> dict:
    return {
        v: [enc for enc, _, _ in fs.iter_encoded()]
        for v, fs in sorted(assignment.items())
    }


def load_requests(lines: Iterable[str]) -> list[str]:
    """Parse a JSON-lines request stream of {"vertex": id} records; a line
    of another shape, nested too deep to parse, or an id that is not a
    string, raises ValueError."""
    out = []
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except RecursionError:
            raise ValueError(f"request line {i} is nested too deep") from None
        if not isinstance(doc, dict) or "vertex" not in doc:
            raise ValueError(f"request line {i} lacks a 'vertex' field: {line!r}")
        vid = doc["vertex"]
        if not isinstance(vid, str):
            raise ValueError(f"request line {i}: vertex id {vid!r} is not a string")
        out.append(vid)
    return out
