import random

import pytest

from freqalloc.allocation import (
    AllocationError,
    Allocator,
    BipartiteInstance,
    BudgetExceededError,
    NotBipartiteError,
    assignment_valid,
    bipartition,
    brute_force_opt,
    static_allocate,
    static_opt,
)
from freqalloc.frequencies import FrequencySet, PoolTag, Side, pool_prefix
from freqalloc.golden import GoldenNumber
from freqalloc.harness import UniversalGraph
from freqalloc.systems import (
    FSystemSpec,
    golden_system,
    half_system,
    trivial_system,
)

from oracles import from_indices


def instance(vertices, edges, loads=None):
    inst = BipartiteInstance.from_edges(vertices, edges)
    if loads:
        inst.loads.update(loads)
    return inst


class TestBipartition:
    def test_single_edge(self):
        sides = bipartition(["u", "v"], {"u": ["v"], "v": ["u"]})
        assert sides == {"u": Side.A, "v": Side.B}

    def test_path(self):
        sides = bipartition(
            ["u", "v", "w"], {"u": ["v"], "v": ["u", "w"], "w": ["v"]}
        )
        assert sides == {"u": Side.A, "v": Side.B, "w": Side.A}

    def test_triangle_rejected_with_witness(self):
        adj = {"a": ["b", "c"], "b": ["a", "c"], "c": ["a", "b"]}
        with pytest.raises(NotBipartiteError) as err:
            bipartition(["a", "b", "c"], adj)
        cycle = err.value.cycle
        assert len(cycle) % 2 == 1 and len(cycle) >= 3
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            assert x == y or y in adj[x]

    def test_isolated_vertex_gets_a(self):
        assert bipartition(["z"], {}) == {"z": Side.A}

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
                v: FrequencySet.from_frequencies(fs) for v, fs in picked.items()
            }


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

    def test_full_check_names_the_edge(self):
        inst = instance(["u", "v"], [("u", "v")])
        alloc = Allocator(inst, CLASHING, validate="full")
        alloc.request("u")
        clash = r"^edge \(u, v\) shares \{F1\} after assigning 1 to v$"
        with pytest.raises(AllocationError, match=clash):
            alloc.request("v")
        assert not assignment_valid(inst, alloc.assignment_sets())
