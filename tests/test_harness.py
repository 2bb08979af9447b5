import hashlib
import json
import random
from fractions import Fraction

import pytest

from freqalloc import harness
from freqalloc.allocation import Allocator, static_opt
from freqalloc.checker import check_f2
from freqalloc.frequencies import FrequencySet, PoolTag, Side
from freqalloc.golden import GoldenNumber, constants
from freqalloc.harness import (
    CollisionError,
    PhaseRecord,
    ResourceGuardError,
    RunReport,
    ScaleCapError,
    UniversalGraph,
    UniversalInstance,
    lower_bound_instance,
    run_universal,
    vertex_id,
)
from freqalloc.systems import (
    FSystemSpec,
    golden_system,
    half_system,
    trivial_system,
)

from oracles import (
    PrefixMax,
    measure_ratio,
    mixed_pool_system,
    parse_vertex_id,
    pool_band,
    pool_prefix,
)

C = constants()


class StringUniversalInstance:
    """Reference replay instance keyed by "A:t,k" strings: parses each id
    once, keeps loads in a dict keyed by id and the prefix-max trees in a
    dict keyed by Side."""

    def __init__(self, graph):
        self.graph = graph
        self.loads = {}
        self._meta = {}
        self._prefix = {Side.A: PrefixMax(graph.horizon),
                        Side.B: PrefixMax(graph.horizon)}
        self._top_level = 0

    def _touch(self, v):
        meta = self._meta.get(v)
        if meta is None:
            meta = parse_vertex_id(v)
            side, t, k = meta
            if not (1 <= k <= t <= self.graph.horizon):
                raise ValueError(f"vertex {v} is outside the universal graph")
            self._meta[v] = meta
            self.loads.setdefault(v, 0)
        return meta

    def admit(self, v):
        side, t, k = self._touch(v)
        if t < self._top_level:
            raise ValueError(
                "universal replay requires nondecreasing levels; "
                f"got level {t} after {self._top_level}"
            )
        self._top_level = t
        self.loads[v] += 1
        self._prefix[side].update(k, self.loads[v])
        best = self._prefix[side.other].query(t - k) if t > k else 0
        return side, self.loads[v], self.loads[v] + best

    def independent_opt(self, phase):
        by_index = {s: [0] * (phase + 1) for s in (Side.A, Side.B)}
        for v, load in self.loads.items():
            if load <= 0:
                continue
            side, _, k = self._touch(v)
            if load > by_index[side][k]:
                by_index[side][k] = load
        prefix = {}
        for s in (Side.A, Side.B):
            acc = 0
            row = [0] * (phase + 1)
            for m in range(1, phase + 1):
                acc = max(acc, by_index[s][m])
                row[m] = acc
            prefix[s] = row
        best = 0
        for v, load in self.loads.items():
            if load <= 0:
                continue
            side, _, k = self._touch(v)
            partner = prefix[side.other][max(0, min(phase, phase - k))]
            if load + partner > best:
                best = load + partner
        return best


def reference_run_universal(system, t_max):
    """The string-keyed phase replay, kept as the oracle of run_universal;
    its collision record is keyed by the Frequency objects themselves."""
    r, add = system.claimed_ratio, system.claimed_lambda
    inst = StringUniversalInstance(UniversalGraph(t_max))
    alloc = Allocator(inst, system)
    min_index = {Side.A: {}, Side.B: {}}
    report = RunReport(system=system.name, ratio=r, lam=add)
    for t in range(1, t_max + 1):
        for side in (Side.A, Side.B):
            for k in range(1, t + 1):
                vid = vertex_id(side, t, k)
                for _ in range(k):
                    f = alloc.request(vid)
                    hit = min_index[side.other].get(f)
                    if hit is not None and hit[0] <= t - k:
                        raise CollisionError(
                            f"frequency {f} assigned to {vid} is already used "
                            f"at adjacent {hit[1]}"
                        )
                    mine = min_index[side].get(f)
                    if mine is None or k < mine[0]:
                        min_index[side][f] = (k, vid)
        opt = inst.independent_opt(t)
        used = alloc.distinct_used()
        bound = (r * t).floor() + add
        report.phases.append(
            PhaseRecord(t=t, opt=opt, distinct_used=used, bound=bound,
                        within_bound=used <= bound)
        )
        if opt != t:
            raise CollisionError(
                f"independent optimum after phase {t} is {opt}, expected {t}"
            )
    return report


def clashing_system():
    """Both sides draw the same plain prefix, so neighbours always clash."""
    return FSystemSpec(
        name="clashing",
        claimed_ratio=GoldenNumber(2),
        claimed_lambda=0,
        generator=lambda side, t, k: pool_prefix(PoolTag.PLAIN, k),
    )


class TestUniversalGraph:
    def test_t2_shape(self):
        inst = UniversalGraph(2).materialize()
        assert len(inst.vertices) == 6
        edges = {
            tuple(sorted(e))
            for u in inst.vertices
            for e in ((u, w) for w in inst.adjacency[u])
        }
        assert edges == {
            ("A:1,1", "B:2,1"),
            ("A:2,1", "B:1,1"),
            ("A:2,1", "B:2,1"),
        }
        assert not inst.adjacency[vertex_id(Side.A, 2, 2)]

    def test_rule_instances(self):
        assert UniversalGraph.adjacent(3, 2, 2, 1)
        assert not UniversalGraph.adjacent(3, 3, 3, 1)

    def test_edge_count_matches_materialized(self):
        for T in (1, 2, 3, 5, 8):
            graph = UniversalGraph(T)
            inst = graph.materialize()
            listed = sum(len(inst.adjacency[v]) for v in inst.vertices) // 2
            assert graph.edge_count() == listed

    def test_edge_count_matches_level_pair_loop(self):
        # the closed form against the direct count over level pairs
        def loop_count(T):
            total = 0
            for t in range(1, T + 1):
                for t2 in range(1, T + 1):
                    m = max(t, t2)
                    for k2 in range(1, t2 + 1):
                        total += max(0, min(t, m - k2))
            return total

        for T in range(1, 41):
            assert UniversalGraph(T).edge_count() == loop_count(T), T

    def test_guard(self):
        with pytest.raises(ResourceGuardError):
            UniversalGraph(10**6).materialize()

    def test_guard_is_the_exact_edge_count(self, monkeypatch):
        monkeypatch.setattr(harness, "MAX_EDGES", UniversalGraph(6).edge_count())
        UniversalGraph(6).materialize()
        with pytest.raises(ResourceGuardError):
            UniversalGraph(7).materialize()


class TestUniversalInstance:
    def test_dense_ids(self):
        # (side, t, k) -> s*N + t(t-1)/2 + k-1 with N = T(T+1)/2, a
        # bijection onto range(2N) that names each id back
        T = 6
        inst = UniversalInstance(UniversalGraph(T))
        ids = [
            inst.vertex(side, t, k)
            for side in (Side.A, Side.B)
            for t in range(1, T + 1)
            for k in range(1, t + 1)
        ]
        assert ids == list(range(T * (T + 1)))
        assert inst.vertex(Side.B, 3, 2) == 21 + 3 + 1
        names = [inst.name(v) for v in ids]
        assert names == [
            vertex_id(side, t, k)
            for side in (Side.A, Side.B)
            for t in range(1, T + 1)
            for k in range(1, t + 1)
        ]

    def test_neighbors_match_edge_rule(self):
        # the id ranges of neighbors against the adjacent predicate over
        # every opposite-side vertex, in dense-id order
        for T in range(1, 7):
            inst = UniversalInstance(UniversalGraph(T))
            for v in inst.vertices:
                side, t, k = parse_vertex_id(inst.name(v))
                want = [
                    inst.vertex(side.other, t2, k2)
                    for t2 in range(1, T + 1)
                    for k2 in range(1, t2 + 1)
                    if UniversalGraph.adjacent(t, k, t2, k2)
                ]
                assert list(inst.neighbors(v)) == want, (T, inst.name(v))

    def test_opt_tracking_matches_generic(self):
        # replay phases on the lazy instance and on the materialized graph:
        # each admit triple (side, load, candidate) must equal the generic
        # one over explicit adjacency, and the running optimum the generic
        # static computation
        for T in (1, 2, 5, 8):
            graph = UniversalGraph(T)
            lazy = UniversalInstance(graph)
            explicit = graph.materialize()
            t_lazy = 0
            for t in range(1, T + 1):
                for vid in graph.phase_requests(t):
                    side, t_v, k = parse_vertex_id(vid)
                    got = lazy.admit(lazy.vertex(side, t_v, k))
                    assert got == explicit.admit(vid), (T, vid)
                    assert got[0] is side
                    t_lazy = max(t_lazy, got[2])
                assert t_lazy == static_opt(explicit) == t
                assert lazy.independent_opt(t) == t

    @pytest.mark.parametrize("seed", range(3))
    def test_admit_matches_generic_off_schedule(self, seed):
        # the phase schedule loads both sides alike, so a walk of the wrong
        # side's tree passes it; random requests in nondecreasing level
        # order, any side, index and count, tell the sides apart
        rng = random.Random(seed)
        T = 9
        graph = UniversalGraph(T)
        lazy = UniversalInstance(graph)
        explicit = graph.materialize()
        for t in range(1, T + 1):
            level = [
                (side, k)
                for side in (Side.A, Side.B)
                for k in range(1, t + 1)
                for _ in range(rng.choice((0, 0, 1, 3)))
            ]
            rng.shuffle(level)
            for side, k in level:
                got = lazy.admit(lazy.vertex(side, t, k))
                assert got == explicit.admit(vertex_id(side, t, k))

    def test_rejects_level_regressions(self):
        lazy = UniversalInstance(UniversalGraph(5))
        lazy.admit(lazy.vertex(Side.A, 3, 1))
        with pytest.raises(ValueError, match="nondecreasing levels"):
            lazy.admit(lazy.vertex(Side.A, 2, 1))

    def test_independent_opt_refuses_a_phase_below_the_top_level(self):
        lazy = UniversalInstance(UniversalGraph(5))
        lazy.admit(lazy.vertex(Side.B, 3, 3))
        assert lazy.independent_opt(3) == 1
        with pytest.raises(ValueError) as err:
            lazy.independent_opt(2)
        assert str(err.value) == "phase 2 is below the highest admitted level 3"

    @pytest.mark.parametrize("t, k", [(6, 1), (3, 4), (2, 0), (0, 0)])
    def test_rejects_vertices_outside_the_graph(self, t, k):
        inst = UniversalInstance(UniversalGraph(5))
        with pytest.raises(ValueError, match="outside the universal graph"):
            inst.vertex(Side.B, t, k)

    @pytest.mark.parametrize("v", [-1, 30, 31])
    def test_rejects_ids_outside_the_graph(self, v):
        inst = UniversalInstance(UniversalGraph(5))
        with pytest.raises(ValueError, match="outside the universal graph"):
            inst.admit(v)

    def test_full_validation_on_dense_ids(self):
        # the allocator's validation modes read the instance only through
        # its protocol; on dense ids they see the same graph and picks
        T = 6
        graph = UniversalGraph(T)
        lazy = UniversalInstance(graph)
        full = Allocator(lazy, golden_system(), validate="full")
        explicit = Allocator(graph.materialize(), golden_system())
        for vid in graph.request_stream():
            side, t, k = parse_vertex_id(vid)
            assert full.request(lazy.vertex(side, t, k)) == explicit.request(vid)


class TestRunUniversal:
    def test_trivial_uses_exactly_2t(self):
        report = run_universal(trivial_system(), 40)
        assert [p.distinct_used for p in report.phases] == [
            2 * t for t in range(1, 41)
        ]
        assert measure_ratio(report, 0) == 2

    def test_half_within_bound(self):
        report = run_universal(half_system(), 60)
        assert report.all_within_bound()
        assert measure_ratio(report, 2) <= Fraction(3, 2)

    def test_golden_within_bound(self):
        report = run_universal(golden_system(), 60)
        assert report.all_within_bound()
        for p in report.phases:
            assert p.opt == p.t
            assert p.distinct_used <= (C.r0 * p.t).floor() + 8
        ratio = measure_ratio(report, 8)
        assert GoldenNumber(ratio) <= C.r0

    def test_no_collisions_cross_checked(self):
        # replay the same schedule on the explicit instance with full
        # validation; proves the fast collision bookkeeping sound
        T = 7
        graph = UniversalGraph(T)
        alloc = Allocator(graph.materialize(), golden_system(), validate="full")
        for t in range(1, T + 1):
            for vid in graph.phase_requests(t):
                alloc.request(vid)
        report = run_universal(golden_system(), T)
        assert report.phases[-1].distinct_used == alloc.distinct_used()

    @pytest.mark.parametrize("T", [1, 2, 7, 30])
    @pytest.mark.parametrize(
        "system", [trivial_system, half_system, golden_system]
    )
    def test_matches_string_keyed_reference(self, system, T):
        assert (
            run_universal(system(), T).to_json()
            == reference_run_universal(system(), T).to_json()
        )

    def test_collision_names_both_vertices(self):
        # every vertex's first request draws plain 1; the level-1 vertices
        # are not adjacent (1 + 1 > 1), so the first clash is A:2,1 against
        # B:1,1 (1 + 1 <= 2)
        with pytest.raises(CollisionError) as err:
            run_universal(clashing_system(), 3)
        assert str(err.value) == (
            "frequency 1 assigned to A:2,1 is already used at adjacent B:1,1"
        )
        with pytest.raises(CollisionError) as ref:
            reference_run_universal(clashing_system(), 3)
        assert str(ref.value) == str(err.value)

    def test_collision_through_the_smallest_index(self):
        # side B draws 1000+t .. 1000+t+j-1 for its j-th request, so
        # frequency 1003 goes first to B:2,2 (k = 2) and then to B:3,1
        # (k = 1); side A draws 1..j, except that its third request at
        # level 4 draws 1, 2, 1003.  A:4,3 meets B:3,1 (1 + 3 <= 4) but not
        # B:2,2 (2 + 3 > 4), so the clash is only seen if the replay keeps
        # the smallest index using 1003.
        def gen(side, t, k):
            if side is Side.B:
                return pool_band(PoolTag.PLAIN, 1000 + t - 1, 1000 + t + k - 1)
            if (t, k) == (4, 3):
                return FrequencySet(
                    [(PoolTag.PLAIN, 1, 3), (PoolTag.PLAIN, 1003, 1004)]
                )
            return pool_prefix(PoolTag.PLAIN, k)

        system = FSystemSpec(
            name="late-small-index",
            claimed_ratio=GoldenNumber(2),
            claimed_lambda=0,
            generator=gen,
        )
        with pytest.raises(CollisionError) as err:
            run_universal(system, 4)
        assert str(err.value) == (
            "frequency 1003 assigned to A:4,3 is already used at adjacent B:3,1"
        )

    def test_mixed_pools_do_not_collide(self):
        # SA1 (side A) and plain 3 (side B) share the global encoding 3 but
        # are two frequencies, so the F2-clean system replays without a
        # collision, and each phase counts its distinct (pool, index) picks
        system = mixed_pool_system()
        assert check_f2(system, 6) == []
        report = run_universal(system, 4)
        graph = UniversalGraph(4)
        alloc = Allocator(graph.materialize(), system, validate="full")
        picked = set()
        for p in report.phases:
            for vid in graph.phase_requests(p.t):
                f = alloc.request(vid)
                picked.add((f.pool, f.index))
            assert p.distinct_used == len(picked) == 2 * p.t
        assert report.to_json() == reference_run_universal(system, 4).to_json()

    def test_phase_bounds_build_no_golden_number(self, monkeypatch):
        # each phase's bound floor(r*t) + lambda comes from golden's floor
        # reader: no GoldenNumber is built in the replay, and the report's
        # bytes are those of r*t built and floored as a GoldenNumber
        sys_ = golden_system()
        built = []
        init = GoldenNumber.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(GoldenNumber, "__init__", counting)
        report = run_universal(sys_, 30)
        monkeypatch.undo()
        assert built == []
        assert [p.bound for p in report.phases] == [
            (C.r0 * t).floor() + 8 for t in range(1, 31)]
        text = json.dumps(report.to_json(), sort_keys=True, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "11986aa0c64e4e0ad28c38be7faf568e5b815ed1f642128d8f48831b5dc5d957")

    def test_measure_ratio_empty_rejected(self):
        with pytest.raises(ValueError):
            measure_ratio(RunReport("x", GoldenNumber(2), 0), 0)

    def test_report_serialization(self):
        report = run_universal(trivial_system(), 5)
        doc = report.to_json()
        assert doc["all_within_bound"] is True
        assert doc["phases"][2] == {
            "t": 3, "opt": 3, "used": 6, "bound": 6, "ok": True,
        }


class TestLowerBoundInstance:
    def test_theta_one_families(self):
        inst, requests = lower_bound_instance(1, 1)
        pairs = {parse_vertex_id(v)[1:] for v in inst.vertices}
        assert pairs == {
            (6, 6),
            (12, 6),
            (18, 12),
            (9, 6),
            (12, 12),
            (24, 12),
            (36, 24),
        }
        assert len(inst.vertices) == 14
        # requests follow the phase order and load "index" requests each
        loads = {}
        for v in requests:
            loads[v] = loads.get(v, 0) + 1
        for v in inst.vertices:
            _, _, k = parse_vertex_id(v)
            assert loads[v] == k
        levels = [parse_vertex_id(v)[1] for v in requests]
        assert levels == sorted(levels)

    def test_edges_follow_rule(self):
        inst, _ = lower_bound_instance(1, 1)
        for u in inst.vertices:
            su, tu, ku = parse_vertex_id(u)
            for w in inst.adjacency[u]:
                sw, tw, kw = parse_vertex_id(w)
                assert su is not sw
                assert ku + kw <= max(tu, tw)
        # and non-edges fail the rule
        for u in inst.vertices:
            su, tu, ku = parse_vertex_id(u)
            for w in inst.vertices:
                sw, tw, kw = parse_vertex_id(w)
                if su is not sw and w not in inst.adjacency[u]:
                    assert ku + kw > max(tu, tw)

    def test_replay_reaches_intended_loads(self):
        inst, requests = lower_bound_instance(1, 1)
        alloc = Allocator(inst, golden_system(), validate="neighbors")
        for v in requests:
            alloc.request(v)
        for v in inst.vertices:
            _, _, k = parse_vertex_id(v)
            assert inst.loads[v] == k

    def test_scale_cap_refusal(self):
        with pytest.raises(ScaleCapError) as err:
            lower_bound_instance(35, 1, scale_cap=10**6)
        assert str(err.value) == (
            "largest scale 6*35*1*2^35 = 7215545057280 exceeds the cap 1000000")

    def test_refusal_forms_no_scale_past_the_cap_bits(self, monkeypatch):
        # from theta = cap.bit_length() on, 2^theta alone exceeds the cap:
        # the refusal asks for no scale at or past that index, and prints
        # the largest one as text
        asked = []
        scale = harness.doubling_scale

        def counting_scale(theta, lam, i):
            asked.append(i)
            return scale(theta, lam, i)

        monkeypatch.setattr(harness, "doubling_scale", counting_scale)
        with pytest.raises(ScaleCapError) as err:
            lower_bound_instance(10**9, 1)
        assert isinstance(err.value, harness.ResourceGuardError)
        assert all(i < harness.SCALE_DEFAULT_CAP.bit_length() for i in asked)
        assert str(err.value) == (
            "largest scale 6*1000000000*1*2^1000000000 exceeds the cap 1000000")

    def test_bipartite(self):
        inst, _ = lower_bound_instance(2, 1)
        for u in inst.vertices:
            for w in inst.adjacency[u]:
                assert inst.sides[u] is not inst.sides[w]
