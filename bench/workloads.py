"""The benchmark's workloads: inputs, what each one measures, and its checks.

Every workload is one closed-loop caller in one single-threaded process: it
issues its next call into freqalloc only after the previous one returned.
``setup()`` is what a user pays before the first answer, once the
interpreter runs (the worker times it from its first statement); ``run()``
is the measured work; ``check()`` compares every output with a known answer
afterwards, outside the measured time.  The known answers in ``known_answers.json``
were recorded with the freqalloc sources the benchmark was introduced on,
the pick sequence of replay-random for each of its GRAPHS seeded graphs.
An output with no recorded answer counts as failed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
import sys
import time
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
PLUGIN_SCRIPT = "bench/oddeven_plugin.py"


@functools.cache
def known_answers() -> dict:
    return json.loads((BENCH_DIR / "known_answers.json").read_text(encoding="utf-8"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank q-th percentile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, -(-q * len(ordered) // 100)) - 1]


def floor_r0(t: int) -> int:
    """floor(R0 * t) for R0 = (18 - sqrt5)/11, exactly and without freqalloc.

    The largest n with 11n <= 18t - t*sqrt5, i.e. with d = 18t - 11n >= 0
    and 5t^2 <= d^2 (equality needs t = 0, since sqrt5 is irrational).
    """
    n = (18 * t - math.isqrt(5 * t * t)) // 11 + 1
    while not (18 * t - 11 * n >= 0 and 5 * t * t <= (18 * t - 11 * n) ** 2):
        n -= 1
    return n


class Workload:
    name = ""  # as in BENCHMARK.json, which gives the reason for each workload
    seed_use = ""
    # Wall seconds of one repetition (interpreter start to exit) on the
    # commit the benchmark was introduced on, 2 cores: fixes how many
    # repetitions a run of --seconds makes, whatever the code's speed.
    rep_s: float

    def __init__(self, seed: int, workdir: Path,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.seed = seed
        self.workdir = workdir
        self.clock = clock  # times every call the workload makes
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.requests = 0
        self.latencies_s: list[float] = []
        self.out_bytes = 0
        # set-up that the program pays inside run(); the caller moves it
        # from run_s to setup_s
        self.deferred_setup_s = 0.0

    @classmethod
    def rep_seed(cls, seed: int, rep: int) -> int:
        """The seed of repetition ``rep`` of a run with ``seed``."""
        return seed

    def generate(self) -> None:
        """Build the seeded inputs; timed apart and not counted as set-up."""

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def check(self) -> list[str]:
        """Count each operation with a wrong output as failed, say why in
        ``errors``, and return the SHA-256 of every output."""
        raise NotImplementedError

    def reference(self, key: object) -> object:
        return known_answers().get(self.name, {}).get(str(key))


class CliWorkload(Workload):
    """Calls ``cli.main`` in process, each call writing its verdict to a file.

    ``calls`` holds (argv, expected exit code, verdict check) triples.
    """

    calls: list = []

    def setup(self) -> None:
        from freqalloc import cli

        self.cli = cli  # each call builds its own system, so set-up is the import

    def run(self) -> None:
        self.codes: list[object] = []
        clock = self.clock
        for i, (argv, _, _) in enumerate(self.calls):
            out = self.workdir / f"out{i}.json"
            self.attempted += 1
            self.requests += 1
            t0 = clock()
            try:
                code = self.cli.main([*argv, "--out", str(out)])
            except Exception as exc:  # a crash is a failed operation
                code = f"{type(exc).__name__}: {exc}"
            self.latencies_s.append(clock() - t0)
            self.codes.append(code)

    def canonical(self, data: bytes) -> bytes:
        return data

    def check(self) -> list[str]:
        digests = []
        for i, ((argv, want_code, verdict_ok), code) in enumerate(
            zip(self.calls, self.codes)
        ):
            before = len(self.errors)
            label = " ".join(argv[:1] + argv[-2:])
            try:
                data = (self.workdir / f"out{i}.json").read_bytes()
            except OSError as exc:
                data = b""
                self.errors.append(f"{label}: no verdict file: {exc}")
            self.out_bytes += len(data)
            digest = sha256(self.canonical(data))
            digests.append(digest)
            if code != want_code:
                self.errors.append(f"{label}: exit {code!r}, expected {want_code}")
            elif not _verdict_holds(verdict_ok, data):
                self.errors.append(f"{label}: verdict differs from the known answer")
            if digest != self.reference(i):
                self.errors.append(f"{label}: output bytes differ from the reference")
            self.failed += len(self.errors) > before
        return digests


def _verdict_holds(verdict_ok, data: bytes) -> bool:
    try:
        return verdict_ok(json.loads(data))
    except (ValueError, KeyError, TypeError, IndexError):
        return False


def _clean(doc: dict) -> bool:
    return doc["violation_count"] == 0 and not doc["violations"]


def _refuted_at_88(doc: dict) -> bool:
    first = doc["violations"][0] if doc["violations"] else {}
    return (doc["status"] == "refuted" and first.get("kind") == "competitiveness"
            and first.get("params") == {"t": 88})


def _certificate(doc: dict) -> bool:
    return doc["status"] == "certificate" and doc["certificate"] is not None


class CheckGolden(CliWorkload):
    """The checker path users run: the checker sweeps, set algebra on
    compact bands, the cold generator and row sizes, and golden floors,
    with almost no allocation work."""

    name = "check-golden"
    rep_s = 1.6
    seed_use = "unused: the inputs are fixed command lines"
    falsify = ["falsify", "--system", "golden", "--r", "1.42", "--lambda", "8"]
    calls = [
        (["verify", "--system", "golden",
          "--checks", "f1,f2,competitiveness,lemmas",
          "--t-max", "400", "--f2-t-max", "80", "--lemma-t-max", "200"],
         0, _clean),
        # acceptance criterion 5: refuted by competitiveness at t = 88
        ([*falsify, "--t-max", "100"], 1, _refuted_at_88),
        # acceptance criterion 9: too short to refute, so a certificate
        ([*falsify, "--t-max", "80"], 0, _certificate),
    ]


class CheckPlugin(CliWorkload):
    """The only workload on the plugin layer: thousands of JSON round trips,
    and set algebra on fully fragmented sets of one band per frequency, so
    a gain for compact bands that costs fragmented ones shows here."""

    name = "check-plugin"
    rep_s = 1.0
    seed_use = "unused: the inputs are fixed command lines"
    calls = [
        (["verify", "--system", f"plugin:{PLUGIN_SCRIPT}", "--r", "2",
          "--lambda", "0", "--t-max", "50", "--f2-t-max", "50"],
         0, _clean),
    ]

    def setup(self) -> None:
        from freqalloc import cli, plugin

        self.cli = cli
        # The CLI starts the child at its first query.  That query's time,
        # the child's start and first reply, is set-up a plugin user pays
        # before any verdict, so it counts in setup_s, not in run_s.
        query = plugin.PluginSystem.query
        clock = self.clock
        first = [True]

        def timing_first_query(system, side, t, k):
            if not first[0]:
                return query(system, side, t, k)
            first[0] = False
            t0 = clock()
            try:
                return query(system, side, t, k)
            finally:
                self.deferred_setup_s = clock() - t0

        plugin.PluginSystem.query = timing_first_query

    def run(self) -> None:
        super().run()
        self.latencies_s[0] -= self.deferred_setup_s

    def canonical(self, data: bytes) -> bytes:
        # the report names the plugin by the interpreter that runs it
        exe = json.dumps(sys.executable)[1:-1].encode()
        return data.replace(b"plugin:" + exe, b"plugin:<python>")


class ReplayUniversal(Workload):
    """``run_universal(golden, T)``: the phase schedule drives the O(k)
    canonical scan of each request and the harness's collision and optimum
    bookkeeping; the generator cache mostly hits, and there is almost no
    checker work."""

    name = "replay-universal"
    rep_s = 1.25
    seed_use = "unused: the phase schedule is fixed by T"
    T = 50

    def setup(self) -> None:
        from freqalloc import harness, systems

        self.harness = harness
        self.system = systems.golden_system()

    def run(self) -> None:
        self.attempted += 1
        self.report = None
        t0 = self.clock()
        try:
            self.report = self.harness.run_universal(self.system, self.T)
        except Exception as exc:  # a crash is a failed operation
            self.errors.append(f"run_universal raised {type(exc).__name__}: {exc}")
            self.failed += 1
        self.latencies_s.append(self.clock() - t0)
        self.requests += sum(t * (t + 1) for t in range(1, self.T + 1))

    def check(self) -> list[str]:
        if self.report is None:
            return []
        doc = self.report.to_json()
        phases = doc["phases"]
        if [p["t"] for p in phases] != list(range(1, self.T + 1)):
            self.errors.append("the report does not hold one phase per level")
        for p in phases:
            if p["opt"] != p["t"] or p["used"] > floor_r0(p["t"]) + 8:
                self.errors.append(f"phase {p['t']}: opt {p['opt']}, used {p['used']}")
                break
        digest = sha256(json.dumps(doc, sort_keys=True).encode())
        if digest != self.reference(self.T):
            self.errors.append("RunReport JSON differs from the reference")
        self.failed += bool(self.errors)
        return [digest]


class ReplayRandom(Workload):
    """Zipf traffic with exponent 1 on a random bipartite graph.

    The hottest of the 400 vertices gets 914 of the 6000 requests and the
    mean load is 15, so the optimum t climbs to about 1000 and nearly every
    request raises it or meets a new (side, t, k): about 94% of the
    generator calls miss its cache, and the hot vertices' canonical scans
    grow with k.  The seed draws the graph, which vertex gets which load,
    and the order of the requests.  Each repetition of a run replays its own
    graph, so that a run measures the typical graph rather than one: graphs
    differ in cost by up to 10% in run time and 20% in p99.
    """

    name = "replay-random"
    seed_use = ("repetition i replays graph (64 * seed + i) modulo 1000; the graph's "
                "seed draws it, the vertex loads and the request order")
    rep_s = 0.9
    GRAPHS = 1000  # distinct seeded inputs, each with a recorded pick sequence
    SIDE_SIZE = 200  # vertices per side
    DEGREE = 20  # neighbours drawn for each side-A vertex
    REQUESTS = 6000
    GRAPHS_PER_SEED = 64  # graphs of a run's repetitions, before the next seed's
    ZIPF = 1.0  # the vertex of popularity rank i gets a share ~ (i+1)^-ZIPF

    @classmethod
    def rep_seed(cls, seed: int, rep: int) -> int:
        return (cls.GRAPHS_PER_SEED * seed + rep) % cls.GRAPHS

    def generate(self) -> None:
        self.graph = self.seed % self.GRAPHS
        rng = random.Random(self.graph)
        a = [f"a{i:03d}" for i in range(self.SIDE_SIZE)]
        b = [f"b{i:03d}" for i in range(self.SIDE_SIZE)]
        self.vertices = a + b
        self.edges = [(u, w) for u in a for w in sorted(rng.sample(b, self.DEGREE))]
        by_rank = self.vertices[:]
        rng.shuffle(by_rank)
        # Every graph gets the same Zipf load profile, so that seeds change
        # the inputs but hardly the work: rank i's share of the requests,
        # rounded down, the remainder one each on the hottest ranks.
        weights = [(i + 1) ** -self.ZIPF for i in range(len(by_rank))]
        total = sum(weights)
        loads = [int(self.REQUESTS * w / total) for w in weights]
        for i in range(self.REQUESTS - sum(loads)):
            loads[i] += 1
        self.stream = [v for v, n in zip(by_rank, loads) for _ in range(n)]
        rng.shuffle(self.stream)

    def setup(self) -> None:
        from freqalloc import allocation, frequencies, systems

        sides = {v: frequencies.Side.A if v[0] == "a" else frequencies.Side.B
                 for v in self.vertices}
        instance = allocation.BipartiteInstance.from_edges(
            self.vertices, self.edges, sides=sides)
        self.alloc = allocation.Allocator(
            instance, systems.golden_system(), validate="neighbors")

    def run(self) -> None:
        request = self.alloc.request
        clock = self.clock
        latencies = self.latencies_s
        picks = self.picks = []
        for v in self.stream:
            self.attempted += 1
            t0 = clock()
            try:
                f = request(v)
            except Exception as exc:  # a crash is a failed operation
                latencies.append(clock() - t0)
                self.failed += 1
                self.errors.append(f"request {len(picks) + 1} at {v} raised "
                          f"{type(exc).__name__}: {exc}")
                break
            latencies.append(clock() - t0)
            picks.append((v, f.pool.token, f.index))
        self.requests += len(latencies)
        self.attempted += 1  # the replay as a whole, judged by check()

    def check(self) -> list[str]:
        before = len(self.errors)
        held: dict[str, set] = {v: set() for v in self.vertices}
        loads = dict.fromkeys(self.vertices, 0)
        for v in self.stream[:len(self.picks)]:
            loads[v] += 1
        for v, pool, index in self.picks:
            held[v].add((pool, index))
        bad = [v for v in self.vertices if len(held[v]) != loads[v]]
        clashes = [(u, w) for u, w in self.edges if not held[u].isdisjoint(held[w])]
        opt = max([loads[u] + loads[w] for u, w in self.edges] + list(loads.values()))
        used = len(set().union(*held.values()))
        if bad:
            self.errors.append(f"{len(bad)} vertices do not hold exactly their load, e.g. {bad[0]}")
        if clashes:
            self.errors.append(f"{len(clashes)} edges share a frequency, e.g. {clashes[0]}")
        if used > floor_r0(opt) + 8:
            self.errors.append(f"{used} distinct frequencies exceed floor(R0*{opt}) + 8")
        if used != self.alloc.distinct_used():
            self.errors.append(f"the allocator counts {self.alloc.distinct_used()} "
                      f"distinct frequencies, the picks hold {used}")
        digest = sha256("".join(f"{v}\t{p}\t{i}\n" for v, p, i in self.picks).encode())
        if digest != self.reference(self.graph):
            self.errors.append(f"pick sequence of graph {self.graph} differs from the reference")
        self.failed += len(self.errors) > before
        return [digest]


WORKLOADS = {w.name: w for w in (CheckGolden, CheckPlugin, ReplayUniversal, ReplayRandom)}
