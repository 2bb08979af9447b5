import random

import pytest

from freqalloc import allocation
from freqalloc.allocation import (
    AllocationError,
    Allocator,
    BipartiteInstance,
    BudgetExceededError,
    NotBipartiteError,
    assignment_valid,
    brute_force_opt,
    static_allocate,
    static_opt,
)
from freqalloc.frequencies import FrequencySet, PoolTag, Side
from freqalloc.golden import GoldenNumber
from freqalloc.harness import UniversalGraph, UniversalInstance
from freqalloc.systems import (
    FSystemSpec,
    golden_system,
    half_system,
    trivial_system,
)

from oracles import from_indices, mixed_pool_system, pool_prefix


def instance(vertices, edges, loads=None):
    inst = BipartiteInstance.from_edges(vertices, edges)
    if loads:
        inst.loads.update(loads)
    return inst


class TestBipartition:
    def test_single_edge(self):
        sides = BipartiteInstance.from_edges(["u", "v"], [("u", "v")]).sides
        assert sides == {"u": Side.A, "v": Side.B}

    def test_path(self):
        sides = BipartiteInstance.from_edges(
            ["u", "v", "w"], [("u", "v"), ("v", "w")]
        ).sides
        assert sides == {"u": Side.A, "v": Side.B, "w": Side.A}

    def test_triangle_rejected_with_witness(self):
        adj = {"a": ["b", "c"], "b": ["a", "c"], "c": ["a", "b"]}
        with pytest.raises(NotBipartiteError) as err:
            BipartiteInstance.from_edges(
                ["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
        cycle = err.value.cycle
        assert len(cycle) % 2 == 1 and len(cycle) >= 3
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            assert x == y or y in adj[x]

    def test_isolated_vertex_gets_a(self):
        assert BipartiteInstance.from_edges(["z"], []).sides == {"z": Side.A}

    def test_respects_given_sides(self):
        inst = BipartiteInstance.from_edges(
            ["u", "v"], [("u", "v")], sides={"v": Side.A}
        )
        assert inst.sides == {"u": Side.B, "v": Side.A}

    def test_rejects_inconsistent_sides(self):
        with pytest.raises(ValueError):
            BipartiteInstance.from_edges(
                ["u", "v"],
                [("u", "v")],
                sides={"u": Side.A, "v": Side.A},
            )


class TestStaticOpt:
    def test_single_edge(self):
        assert static_opt(instance(["u", "v"], [("u", "v")], {"u": 3, "v": 2})) == 5

    def test_isolated_vertex(self):
        assert static_opt(instance(["u"], [], {"u": 4})) == 4

    def test_path(self):
        inst = instance(
            ["a", "b", "c"], [("a", "b"), ("b", "c")], {"a": 1, "b": 2, "c": 1}
        )
        assert static_opt(inst) == 3

    def test_empty(self):
        assert static_opt(instance([], [])) == 0


class TestStaticAllocate:
    def test_single_edge(self):
        inst = instance(["u", "v"], [("u", "v")], {"u": 2, "v": 3})
        out = static_allocate(inst)
        assert out["u"] == FrequencySet([(PoolTag.PLAIN, 1, 3)])
        assert out["v"] == FrequencySet([(PoolTag.PLAIN, 3, 6)])
        assert assignment_valid(inst, out)

    def test_star(self):
        inst = instance(
            ["c", "l1", "l2", "l3"],
            [("c", "l1"), ("c", "l2"), ("c", "l3")],
            {"c": 2, "l1": 1, "l2": 1, "l3": 1},
        )
        out = static_allocate(inst)
        assert out["c"] == FrequencySet([(PoolTag.PLAIN, 1, 3)])
        for leaf in ("l1", "l2", "l3"):
            assert out[leaf] == FrequencySet([(PoolTag.PLAIN, 3, 4)])
        assert assignment_valid(inst, out)

    def test_zero_loads(self):
        inst = instance(["u", "v"], [("u", "v")])
        out = static_allocate(inst)
        assert all(not fs for fs in out.values())

    def test_uses_exactly_opt(self):
        rng = random.Random(13)
        for _ in range(60):
            inst = random_instance(rng)
            out = static_allocate(inst)
            assert assignment_valid(inst, out)
            used = set()
            for fs in out.values():
                used |= {f.index for f in fs}
            assert len(used) == static_opt(inst) or not any(
                inst.loads.values()
            )


def random_instance(rng: random.Random, max_vertices=4, max_total=8):
    n = rng.randint(1, max_vertices)
    names = [f"v{i}" for i in range(n)]
    sides = {v: rng.choice([Side.A, Side.B]) for v in names}
    edges = [
        (u, w)
        for i, u in enumerate(names)
        for w in names[i + 1:]
        if sides[u] is not sides[w] and rng.random() < 0.6
    ]
    inst = BipartiteInstance.from_edges(names, edges, sides=sides)
    budget = rng.randint(0, max_total)
    for v in names:
        take = rng.randint(0, budget)
        inst.loads[v] = take
        budget -= take
    return inst


class TestBruteForce:
    def test_examples(self):
        assert brute_force_opt(
            instance(["u", "v"], [("u", "v")], {"u": 3, "v": 2})
        ) == 5
        cyc = instance(
            ["a", "b", "c", "d"],
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],
            {x: 1 for x in "abcd"},
        )
        assert brute_force_opt(cyc) == 2
        assert brute_force_opt(instance(["u"], [], {"u": 3})) == 3

    def test_budget_declines(self):
        inst = instance(["u", "v"], [("u", "v")], {"u": 9, "v": 9})
        with pytest.raises(BudgetExceededError):
            brute_force_opt(inst, budget_cap=10)

    def test_matches_static_on_random_instances(self):
        rng = random.Random(2024)
        for _ in range(120):
            inst = random_instance(rng)
            assert static_opt(inst) == brute_force_opt(inst), inst.loads


class TestAllocator:
    def test_first_request(self):
        inst = instance(["u", "v"], [("u", "v")])
        alloc = Allocator(inst, golden_system())
        f = alloc.request("u")
        assert alloc.t == 1
        assert f == next(iter(golden_system().sets(Side.A, 1, 1)))

    def test_trivial_prefix_assignment(self):
        inst = instance(["u", "v"], [("u", "v")])
        alloc = Allocator(inst, trivial_system(), validate="full")
        for _ in range(3):
            alloc.request("u")
        for _ in range(2):
            alloc.request("v")
        sets = alloc.assignment_sets()
        assert sets["u"] == FrequencySet([(PoolTag.PRIVATE_A, 1, 4)])
        assert sets["v"] == FrequencySet([(PoolTag.PRIVATE_B, 1, 3)])
        assert alloc.distinct_used() == 5

    def test_determinism(self):
        seq = ["u", "v", "u", "v", "v", "u", "u"]
        runs = []
        for _ in range(2):
            inst = instance(["u", "v"], [("u", "v")])
            alloc = Allocator(inst, golden_system())
            runs.append([alloc.request(v) for v in seq])
        assert runs[0] == runs[1]

    def test_validity_maintained_on_random_replays(self):
        rng = random.Random(77)
        for _ in range(25):
            names = ["a", "b", "c", "d", "e"]
            edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "b")]
            inst = BipartiteInstance.from_edges(names, edges)
            alloc = Allocator(inst, golden_system(), validate="full")
            for _ in range(rng.randint(5, 25)):
                alloc.request(rng.choice(names))
            assert assignment_valid(inst, alloc.assignment_sets())

    def test_size_floor_breach_is_hard_error(self):
        starved = FSystemSpec(
            name="starved",
            claimed_ratio=GoldenNumber(2),
            claimed_lambda=0,
            generator=lambda side, t, k: trivial_system().sets(
                side, t, min(k, 1)
            ),
        )
        inst = instance(["u", "v"], [("u", "v")])
        alloc = Allocator(inst, starved)
        alloc.request("u")
        with pytest.raises(AllocationError):
            alloc.request("u")

    @pytest.mark.parametrize("pool", [PoolTag.PLAIN, PoolTag.SYMMETRIC])
    def test_index_zero_is_refused(self, pool):
        # a band may start at index 0; first fit would pick it, and the
        # pick must still fail the frequency index check
        from_zero = FSystemSpec(
            name="from-zero",
            claimed_ratio=GoldenNumber(2),
            claimed_lambda=0,
            generator=lambda side, t, k: FrequencySet([(pool, 0, 2)]),
        )
        alloc = Allocator(instance(["u"], []), from_zero)
        with pytest.raises(ValueError) as err:
            alloc.request("u")
        assert str(err.value) == "frequency index must be >= 1, got 0"

    def test_mixed_pools_are_distinct_frequencies(self):
        # SA1 and plain 3 share the global encoding 3 but are two
        # frequencies: both are picked, and both are counted
        inst = BipartiteInstance.from_edges(
            ["a", "b"], [], sides={"a": Side.A, "b": Side.B}
        )
        alloc = Allocator(inst, mixed_pool_system(), validate="neighbors")
        picks = [str(alloc.request(v)) for v in ["a", "b", "a", "b"]]
        assert picks == ["SA1", "3", "SA2", "4"]
        assert alloc.distinct_used() == 4
        assert alloc.assignment_sets() == {
            "a": FrequencySet([(PoolTag.SHARED_A, 1, 3)]),
            "b": FrequencySet([(PoolTag.PLAIN, 3, 5)]),
        }

    def test_zero_load_vertices_allowed(self):
        inst = instance(["u", "v", "w"], [("u", "v"), ("v", "w")])
        alloc = Allocator(inst, trivial_system())
        alloc.request("v")
        assert alloc.assignment_sets().keys() == {"v"}


def scan_picks(inst, system, stream):
    """Reference first-fit rule: walk F(c, t, k) in canonical order and take
    the first frequency the vertex does not hold yet."""
    held = {v: set() for v in inst.vertices}
    t = 0
    picks = []
    for v in stream:
        side, k, cand = inst.admit(v)
        t = max(t, cand)
        fs = system.sets(side, t, k)
        f = next(f for f in fs if f not in held[v])
        held[v].add(f)
        picks.append(f)
    return picks


def allocator_picks(inst, system, stream):
    alloc = Allocator(inst, system)
    return [alloc.request(v) for v in stream]


def random_replay(rng, side_size=5, requests=120):
    a = [f"a{i}" for i in range(side_size)]
    b = [f"b{i}" for i in range(side_size)]
    edges = [(u, w) for u in a for w in b if rng.random() < 0.4]
    weights = [rng.random() ** 3 for _ in a + b]  # a few hot vertices
    stream = rng.choices(a + b, weights=weights, k=requests)

    def build():
        sides = {**dict.fromkeys(a, Side.A), **dict.fromkeys(b, Side.B)}
        return BipartiteInstance.from_edges(a + b, edges, sides=sides)

    return build, stream


def fragmented_system():
    """Plain-pool sets of one band per frequency, as plugin sets are: side A
    draws odd, side B even integers up to 2(t + k), skipping one residue
    mod 3 that moves with t, so a vertex holds frequencies outside the
    current set."""

    def gen(side, t, k):
        parity = 1 if side is Side.A else 0
        return from_indices(
            PoolTag.PLAIN,
            (x for x in range(1, 2 * (t + k) + 1)
             if x % 2 == parity and x % 3 != t % 3),
        )

    return FSystemSpec(
        name="fragmented",
        claimed_ratio=GoldenNumber(2),
        claimed_lambda=0,
        generator=gen,
    )


def sliding_system():
    """Plain-pool sets of one band [t - k + 1, t + k + 1), moved up by 10^6
    on side B: a band's start rises with t and falls with k, as golden's
    bounded bands do, so it can land inside a run a vertex already holds."""

    def gen(side, t, k):
        base = 0 if side is Side.A else 10**6
        return FrequencySet([(PoolTag.PLAIN, base + t - k + 1, base + t + k + 1)])

    return FSystemSpec(
        name="sliding",
        claimed_ratio=GoldenNumber(2),
        claimed_lambda=0,
        generator=gen,
    )


def count_walks(monkeypatch) -> list:
    """Record each union-find walk.  The allocator walks only when the index
    a band's start points at is itself held (two or more hops); a walk from
    a free index, or from one pointing at a free index, fails with
    KeyError here."""
    walks = []
    walk = allocation._first_free

    def counting(next_free, i):
        walks.append((i, next_free[i], next_free[next_free[i]]))
        return walk(next_free, i)

    monkeypatch.setattr(allocation, "_first_free", counting)
    return walks


class TestFirstFitDifferential:
    """The allocator's band-wise union-find pick equals the canonical scan."""

    @pytest.mark.parametrize(
        "system", [trivial_system, half_system, golden_system, fragmented_system]
    )
    def test_random_replays(self, system):
        rng = random.Random(f"first-fit {system.__name__}")
        for _ in range(8):
            build, stream = random_replay(rng)
            assert allocator_picks(build(), system(), stream) == scan_picks(
                build(), system(), stream
            )

    @pytest.mark.parametrize("system", [golden_system, sliding_system])
    def test_multi_hop_lookups(self, monkeypatch, system):
        # u fills a run of each pool at t = k; the second edge then drives
        # t up, so u's next bands start inside its runs, where the index a
        # band's start points at is held too
        def build():
            return BipartiteInstance.from_edges(
                ["u", "w", "y", "z"], [("u", "w"), ("y", "z")],
                sides={"u": Side.A, "w": Side.B, "y": Side.A, "z": Side.B},
            )

        stream = ["u"] * 12 + ["y"] * 10 + ["z"] * 10 + ["u"] * 6
        walks = count_walks(monkeypatch)
        picks = allocator_picks(build(), system(), stream)
        assert walks, "no lookup went past one hop"
        assert picks == scan_picks(build(), system(), stream)

    def test_fragmented_sets_are_one_band_per_frequency(self):
        fs = fragmented_system().sets(Side.A, 9, 4)
        assert len(fs.bands) == len(fs) > 1

    def test_universal_phase_stream(self):
        graph = UniversalGraph(12)
        stream = list(graph.request_stream())
        picks = allocator_picks(graph.materialize(), golden_system(), stream)
        assert picks == scan_picks(graph.materialize(), golden_system(), stream)

    @pytest.mark.parametrize("system", [golden_system, fragmented_system])
    def test_assignment_sets_hold_the_picks(self, system):
        rng = random.Random(f"assignment sets {system.__name__}")
        for _ in range(8):
            build, stream = random_replay(rng)
            alloc = Allocator(build(), system())
            picked = {}
            for v in stream:
                picked.setdefault(v, []).append(alloc.request(v))
            assert alloc.assignment_sets() == {
                v: FrequencySet((f.pool, f.index, f.index + 1) for f in fs)
                for v, fs in picked.items()
            }


class TestKeyPath:
    """``request_keys`` serves through ``request``'s pick: a twin allocator
    serving the same stream through it picks the keys of the frequencies
    ``request`` returns."""

    @pytest.mark.parametrize(
        "system", [trivial_system, half_system, golden_system]
    )
    def test_keys_match_the_frequency_path(self, system):
        rng = random.Random(f"key path {system.__name__}")
        for _ in range(8):
            build, stream = random_replay(rng)
            by_frequency = Allocator(build(), system())
            by_key = Allocator(build(), system())
            for v in stream:
                assert by_key.request_keys(v, 1) == [by_frequency.request(v)._key()]
            assert by_key.distinct_used() == by_frequency.distinct_used()

    def test_key_path_clash_names_the_frequency(self):
        # both sides draw PRIVATE_A from index 3, so v's first pick is PA3,
        # which its neighbour u holds
        overlapping = FSystemSpec(
            name="overlapping",
            claimed_ratio=GoldenNumber(2),
            claimed_lambda=0,
            generator=lambda side, t, k: FrequencySet(
                [(PoolTag.PRIVATE_A, 3, 3 + k)]
            ),
        )
        clash = r"^frequency PA3 assigned to v is already used at adjacent u$"
        for serve in (Allocator.request, lambda alloc, v: alloc.request_keys(v, 1)):
            inst = instance(["u", "v"], [("u", "v")])
            alloc = Allocator(inst, overlapping, validate="neighbors")
            serve(alloc, "u")
            with pytest.raises(AllocationError, match=clash):
                serve(alloc, "v")


def random_runs(rng, side_size=5, runs=40):
    """A random_replay graph and a stream of (vertex, run length) pairs."""
    build, stream = random_replay(rng, side_size, runs)
    return build, [(v, rng.choice((1, 1, 2, 3, 7))) for v in stream]


class TestRuns:
    """A run of n requests at one vertex, admitted in one call, is n unit
    requests."""

    @pytest.mark.parametrize("seed", range(3))
    def test_admit_run_is_unit_admits(self, seed):
        rng = random.Random(f"admit runs {seed}")
        build, runs = random_runs(rng)
        by_run, by_unit = build(), build()
        for v, n in runs:
            for _ in range(n):
                unit = by_unit.admit(v)
            assert by_run.admit(v, n) == unit
        assert by_run.loads == by_unit.loads

    @pytest.mark.parametrize("validate", ["none", "neighbors", "full"])
    @pytest.mark.parametrize(
        "system", [trivial_system, half_system, golden_system]
    )
    def test_keys_match_unit_requests(self, system, validate):
        rng = random.Random(f"runs {system.__name__} {validate}")
        for _ in range(4):
            build, runs = random_runs(rng)
            by_run = Allocator(build(), system(), validate=validate)
            by_unit = Allocator(build(), system(), validate=validate)
            for v, n in runs:
                units = [by_unit.request(v)._key() for _ in range(n)]
                assert by_run.request_keys(v, n) == units
                assert by_run.t == by_unit.t
            assert by_run.distinct_used() == by_unit.distinct_used()
            assert by_run.assignment_sets() == by_unit.assignment_sets()

    def test_shortfall_in_mid_run_reads_as_the_unit_path(self):
        # two frequencies at every k: the third unit of a run at u runs short
        starved = FSystemSpec(
            name="starved",
            claimed_ratio=GoldenNumber(2),
            claimed_lambda=0,
            generator=lambda side, t, k: pool_prefix(PoolTag.PLAIN, min(k, 2)),
        )
        errors = []
        for serve in (
            lambda alloc: alloc.request_keys("u", 5),
            lambda alloc: [alloc.request("u") for _ in range(5)],
        ):
            alloc = Allocator(instance(["u", "v"], [("u", "v")]), starved)
            with pytest.raises(AllocationError) as err:
                serve(alloc)
            errors.append(str(err.value))
        assert errors[0] == errors[1] == (
            "system 'starved' offers only 2 frequencies for side A, t=3, k=3; "
            "the size floor requires 3"
        )

    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_runs_are_refused(self, n):
        inst = instance(["u", "v"], [("u", "v")])
        alloc = Allocator(inst, golden_system())
        for admit in (inst.admit, alloc.request_keys):
            with pytest.raises(ValueError, match=f"needs n >= 1, got {n}$"):
                admit("u", n)
        assert inst.loads == {"u": 0, "v": 0}
        assert alloc.t == 0 and not alloc.assignment_sets()


def unnested_system():
    """Plain-pool sets whose k-th set skips the indices of residue k mod 3:
    side A draws odd, side B even integers up to 2(t + k).  F(c, t, k) is
    not a subset of F(c, t, k + 1), so a run's later picks cannot be read
    off a larger set's first ones."""

    def gen(side, t, k):
        parity = 1 if side is Side.A else 0
        return from_indices(
            PoolTag.PLAIN,
            (x for x in range(1, 2 * (t + k) + 1)
             if x % 2 == parity and x % 3 != k % 3),
        )

    return FSystemSpec(
        name="unnested",
        claimed_ratio=GoldenNumber(2),
        claimed_lambda=0,
        generator=gen,
    )


class AnyLevel(UniversalInstance):
    """The universal instance with its level-order check lifted, so that a
    served vertex of any level can take one more request after the replay.
    The neighbour maximum read below the top level is not the graph's, but
    it is the same for two twins in the same state."""

    def admit(self, v, n=1):
        self._top_level = 0
        return super().admit(v, n)


def universal_runs(T):
    """The phase schedule to T as (dense id, run length) pairs."""
    ids = UniversalInstance(UniversalGraph(T))
    return [(ids.vertex(side, t, k), k) for t in range(1, T + 1)
            for side in (Side.A, Side.B) for k in range(1, t + 1)]


class TestFreshRuns:
    """A run at a vertex that holds nothing, at a t it cannot raise, takes
    the first n keys of its (side, t) run from the memo, and leaves the
    vertex as n unit requests would."""

    @pytest.mark.parametrize(
        "system", [trivial_system, half_system, golden_system, unnested_system]
    )
    def test_universal_replay_matches_unit_requests(self, system):
        T = 30
        by_run = Allocator(AnyLevel(UniversalGraph(T)), system())
        by_unit = Allocator(AnyLevel(UniversalGraph(T)), system())
        runs = universal_runs(T)
        for v, n in runs:
            units = [by_unit.request(v)._key() for _ in range(n)]
            assert by_run.request_keys(v, n) == units
            assert by_run.t == by_unit.t
        assert by_run.distinct_used() == by_unit.distinct_used()
        assert by_run.assignment_sets() == by_unit.assignment_sets()
        # both sides' runs at T came from the memo
        assert set(by_run._runs) == {Side.A, Side.B}
        for v, _ in runs[::7]:
            assert by_run.request(v) == by_unit.request(v)
            assert by_run.t == by_unit.t
        assert by_run.assignment_sets() == by_unit.assignment_sets()

    def test_unnested_sets(self):
        fs = unnested_system().sets
        assert fs(Side.A, 9, 4) - fs(Side.A, 9, 5)
        assert all(len(fs(side, t, k)) >= k for side in (Side.A, Side.B)
                   for t in range(1, 31) for k in range(1, t + 1))

    def test_shortfall_in_mid_run_reads_as_the_unit_path(self):
        # side B may hold any number, side A two frequencies at every k;
        # z raises t to 5 first, so u's run of 4 is fresh at a t it cannot
        # raise, and its third unit runs short
        starved = FSystemSpec(
            name="starved",
            claimed_ratio=GoldenNumber(2),
            claimed_lambda=0,
            generator=lambda side, t, k: pool_prefix(
                PoolTag.PLAIN, k if side is Side.B else min(k, 2)),
        )
        outcomes = []
        for serve in (
            lambda alloc: alloc.request_keys("u", 4),
            lambda alloc: [alloc.request("u") for _ in range(4)],
        ):
            inst = instance(["u", "v", "y", "z"], [("u", "v"), ("y", "z")])
            alloc = Allocator(inst, starved)
            alloc.request_keys("z", 5)
            assert alloc.t == 5
            with pytest.raises(AllocationError) as err:
                serve(alloc)
            outcomes.append((str(err.value), alloc.assignment_sets(),
                             alloc.distinct_used(), alloc.t))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == (
            "system 'starved' offers only 2 frequencies for side A, t=5, k=3; "
            "the size floor requires 3"
        )
        assert outcomes[0][1]["u"] == FrequencySet([(PoolTag.PLAIN, 1, 3)])

    def test_preloaded_vertex_is_not_fresh(self):
        # u carries load 2 before the allocator serves it, so its run of 2
        # picks at k = 3 and 4, not at the memo's k = 1 and 2
        picks = []
        for serve in (
            lambda alloc: alloc.request_keys("u", 2),
            lambda alloc: [alloc.request("u")._key() for _ in range(2)],
        ):
            inst = instance(["u", "v", "y", "z"], [("u", "v"), ("y", "z")],
                            loads={"u": 2})
            alloc = Allocator(inst, unnested_system())
            alloc.request_keys("z", 5)
            picks.append((serve(alloc), alloc.assignment_sets()))
        assert picks[0] == picks[1]

    def test_memo_holds_runs_of_the_current_t_only(self):
        T = 20
        inst = UniversalInstance(UniversalGraph(T))
        alloc = Allocator(inst, golden_system())
        picked = {v: alloc.request_keys(v, n) for v, n in universal_runs(T)}
        assert alloc.t == T
        for side in (Side.A, Side.B):
            keys, _, memo_free = alloc._runs[side]
            assert keys == picked[inst.vertex(side, T, T)]
            assert set(memo_free) == set(keys)
        # a request that raises t drops the memo
        alloc.request(inst.vertex(Side.A, T, T))
        assert alloc.t == T + 1
        assert alloc._runs == {}


CLASHING = FSystemSpec(
    name="clashing",
    claimed_ratio=GoldenNumber(2),
    claimed_lambda=0,
    generator=lambda side, t, k: pool_prefix(PoolTag.PLAIN, k),
)


class TestNeighborValidation:
    def test_clash_names_adjacent_vertex(self):
        inst = instance(["u", "v"], [("u", "v")])
        alloc = Allocator(inst, CLASHING, validate="neighbors")
        alloc.request("u")
        with pytest.raises(AllocationError, match="already used at adjacent u"):
            alloc.request("v")

    def test_clash_names_the_adjacent_holder(self):
        # a holds F1 first but is not adjacent to v; u, which is, holds it
        # next, and v's pick of F1 names u
        inst = instance(["a", "b", "u", "v"], [("a", "b"), ("u", "v")])
        alloc = Allocator(inst, CLASHING, validate="neighbors")
        alloc.request("a")
        alloc.request("u")
        clash = r"^frequency 1 assigned to v is already used at adjacent u$"
        with pytest.raises(AllocationError, match=clash):
            alloc.request("v")

    def test_clash_names_the_first_neighbor(self):
        # y holds F1 before x, yet x comes first among v's neighbours
        inst = instance(["v", "x", "y"], [("v", "y"), ("v", "x")])
        assert inst.neighbors("v") == ("x", "y")
        alloc = Allocator(inst, CLASHING, validate="neighbors")
        alloc.request("y")
        alloc.request("x")
        clash = r"^frequency 1 assigned to v is already used at adjacent x$"
        with pytest.raises(AllocationError, match=clash):
            alloc.request("v")

    @pytest.mark.parametrize("mode", ["none", "full"])
    def test_holders_kept_in_neighbors_mode_only(self, mode):
        inst = instance(["u", "v", "x"], [("u", "v"), ("x", "v")])
        alloc = Allocator(inst, golden_system(), validate=mode)
        for vertex in ["u", "v", "x", "u", "v"]:
            alloc.request(vertex)
        assert not alloc._holders

    def test_full_check_names_the_edge(self):
        inst = instance(["u", "v"], [("u", "v")])
        alloc = Allocator(inst, CLASHING, validate="full")
        alloc.request("u")
        clash = r"^edge \(u, v\) shares \{F1\} after assigning 1 to v$"
        with pytest.raises(AllocationError, match=clash):
            alloc.request("v")
        assert not assignment_valid(inst, alloc.assignment_sets())
