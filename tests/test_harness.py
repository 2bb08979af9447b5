from fractions import Fraction

import pytest

from freqalloc.allocation import Allocator, static_opt
from freqalloc.frequencies import Side
from freqalloc.golden import GoldenNumber, constants
from freqalloc.harness import (
    ResourceGuardError,
    ScaleCapError,
    UniversalGraph,
    UniversalInstance,
    lower_bound_instance,
    measure_ratio,
    parse_vertex_id,
    run_universal,
    universal_graph,
    vertex_id,
)
from freqalloc.systems import golden_system, half_system, trivial_system

C = constants()


class TestUniversalGraph:
    def test_t2_shape(self):
        inst = universal_graph(2).materialize()
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
            graph = universal_graph(T)
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
            assert universal_graph(T).edge_count() == loop_count(T), T

    def test_vertex_count(self):
        assert universal_graph(7).vertex_count() == 7 * 8

    def test_guard(self):
        with pytest.raises(ResourceGuardError):
            universal_graph(10**6).materialize()


class TestUniversalInstance:
    def test_opt_tracking_matches_generic(self):
        # replay phases on the lazy instance and on the materialized graph;
        # the running optimum must match the generic static computation
        T = 8
        graph = universal_graph(T)
        lazy = UniversalInstance(graph)
        explicit = graph.materialize()
        t_lazy = 0
        for t in range(1, T + 1):
            for vid in graph.phase_requests(t):
                lazy.bump_load(vid)
                explicit.loads[vid] += 1
                t_lazy = max(t_lazy, lazy.opt_candidate(vid))
            assert t_lazy == static_opt(explicit) == t
            assert lazy.independent_opt(t) == t

    def test_rejects_level_regressions(self):
        lazy = UniversalInstance(universal_graph(5))
        lazy.bump_load(vertex_id(Side.A, 3, 1))
        with pytest.raises(ValueError):
            lazy.bump_load(vertex_id(Side.A, 2, 1))


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
        graph = universal_graph(T)
        alloc = Allocator(graph.materialize(), golden_system(), validate="full")
        for t in range(1, T + 1):
            for vid in graph.phase_requests(t):
                alloc.request(vid)
        report = run_universal(golden_system(), T)
        assert report.phases[-1].distinct_used == alloc.distinct_used()

    def test_measure_ratio_empty_rejected(self):
        from freqalloc.harness import RunReport

        with pytest.raises(ValueError):
            measure_ratio(RunReport("x", GoldenNumber(2), 0), 0)

    def test_report_serialization(self):
        report = run_universal(trivial_system(), 5)
        doc = report.to_json()
        assert doc["all_within_bound"] is True
        assert doc["phases"][2] == {
            "t": 3, "opt": 3, "used": 6, "bound": 6, "ok": True,
        }
        lines = report.to_csv().splitlines()
        assert lines[0] == "t,opt,used,bound"
        assert lines[3] == "3,3,6,6"


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
        assert err.value.t_theta == 6 * 35 * 2**35

    def test_bipartite(self):
        inst, _ = lower_bound_instance(2, 1)
        for u in inst.vertices:
            for w in inst.adjacency[u]:
                assert inst.sides[u] is not inst.sides[w]
