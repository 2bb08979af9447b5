"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (visible with -s; the -v test name
doubles as the pass/fail line otherwise) and pins the criterion's exact
comparisons and time targets.
"""

import random
import time
from fractions import Fraction

from freqalloc.allocation import brute_force_opt, static_opt
from freqalloc.checker import (
    ViolationKind,
    check_f1,
    check_f2,
    falsify,
    lemma_chain_check,
    min_lambda,
    union_sizes,
)
from freqalloc.golden import GoldenNumber, constants, parse_exact
from freqalloc.harness import run_universal
from freqalloc.systems import golden_system, half_system, trivial_system

from oracles import measure_ratio, union_at
from test_allocation import instance, random_instance
from test_golden import dyadic_bisection_floor

C = constants()


def report(n: int, label: str, detail: str = "") -> None:
    tail = f" — {detail}" if detail else ""
    print(f"ACCEPTANCE {n} ({label}): PASS{tail}", flush=True)


def test_criterion_1_golden_system_upper_bound():
    go = golden_system()
    t0 = time.perf_counter()
    assert check_f1(go, 1000) == []
    f1_s = time.perf_counter() - t0
    assert f1_s < 10.0, f"size-floor sweep took {f1_s:.1f}s"
    t0 = time.perf_counter()
    assert check_f2(go, 100) == []
    f2_s = time.perf_counter() - t0
    assert f2_s < 60.0, f"disjointness sweep took {f2_s:.1f}s"
    ml = min_lambda(go, C.r0, 5000)
    assert ml <= 8  # exact comparison in the golden field
    report(
        1,
        "golden system upper bound",
        f"f1@1000 in {f1_s:.2f}s, f2@100 in {f2_s:.2f}s, "
        f"min lambda at t<=5000 is {ml} <= 8",
    )


def test_criterion_2_half_system():
    hf = half_system()
    assert check_f1(hf, 1000) == []
    assert check_f2(hf, 100) == []
    ml = min_lambda(hf, GoldenNumber(Fraction(3, 2)), 5000)
    assert ml <= 2
    report(2, "1.5-competitive system", f"min lambda at t<=5000 is {ml} <= 2")


def test_criterion_3_trivial_system_exact_growth():
    tr = trivial_system()
    for t, size in union_sizes(tr, 5000):
        assert size == 2 * t
    assert min_lambda(tr, GoldenNumber(2), 5000) == 0
    report(3, "trivial system", "|U_t| = 2t for all t <= 5000; min lambda 0")


def test_criterion_4_lemma_chain_on_compliant_systems():
    assert lemma_chain_check(golden_system(), C.r0, 8, 600) == []
    assert (
        lemma_chain_check(half_system(), GoldenNumber(Fraction(3, 2)), 2, 600)
        == []
    )
    report(
        4,
        "shared-frequency inequality chain",
        "golden and half systems clean for even t <= 600 (queries to 1800)",
    )


def test_criterion_5_falsifier_refutes_bad_claims():
    verdict = falsify(golden_system(), parse_exact("1.42"), 8, 1000)
    assert verdict.status == "refuted"
    hit = verdict.violations[0]
    assert hit.kind is ViolationKind.COMPETITIVENESS
    t = hit.params["t"]
    assert t <= 1000
    # the witness re-validates from scratch
    assert GoldenNumber(len(union_at(golden_system(), t)) - 8) > (
        parse_exact("1.42") * t
    )

    verdict2 = falsify(trivial_system(), parse_exact("10/7-1/100"), 0, 100)
    assert verdict2.status == "refuted"
    assert verdict2.violations[0].params["t"] == 1
    report(
        5,
        "falsifier",
        f"golden claiming (1.42, 8) refuted at t={t}; "
        "trivial claiming (10/7 - 1/100, 0) refuted at t=1",
    )


def test_criterion_6_end_to_end_allocator():
    t0 = time.perf_counter()
    rep = run_universal(golden_system(), 150)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"universal run took {elapsed:.1f}s"
    for p in rep.phases:
        assert p.opt == p.t  # independent recomputation
        assert p.distinct_used <= (C.r0 * p.t).floor() + 8
    ratio = measure_ratio(rep, 8)
    assert GoldenNumber(ratio) <= C.r0
    report(
        6,
        "end-to-end allocator",
        f"150 phases, no collisions, bound held, in {elapsed:.1f}s; "
        f"measured ratio {float(ratio):.4f}",
    )


def test_criterion_7_optimum_oracle():
    assert static_opt(
        instance(["u", "v"], [("u", "v")], {"u": 3, "v": 2})
    ) == brute_force_opt(
        instance(["u", "v"], [("u", "v")], {"u": 3, "v": 2})
    ) == 5
    cyc = instance(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],
        {x: 1 for x in "abcd"},
    )
    assert static_opt(cyc) == brute_force_opt(cyc) == 2
    rng = random.Random(20240613)
    for i in range(200):
        inst = random_instance(rng, max_vertices=4, max_total=8)
        assert static_opt(inst) == brute_force_opt(inst), (i, inst.loads)
    report(7, "optimum oracle", "static = brute force on 200 random instances")


def test_criterion_8_golden_arithmetic():
    assert C.phi * C.phi - C.phi - 1 == GoldenNumber(0)
    assert C.alpha * 2 + C.beta * 2 + C.rho - C.r0 == GoldenNumber(0)
    assert C.rho * C.phi - C.beta == GoldenNumber(0)
    rng = random.Random(5_0913)
    n = 100_000
    for _ in range(n):
        x = GoldenNumber(
            Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 1000)),
            Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 1000)),
        )
        assert x.floor() == dyadic_bisection_floor(x)
    report(8, "golden-field arithmetic", f"floor oracle agreed on {n} samples")


def test_criterion_9_headline_gap_substitution():
    # The 10/7 floor is a statement over all systems at scales far beyond any
    # desk horizon, so it is witnessed here indirectly: the inequality chain
    # held on every compliant system (criterion 4), every non-compliant claim
    # in range was refuted with a witness (criterion 5), and an out-of-range
    # claim yields the extrapolated contradiction certificate below.
    # golden meets (1.42, 8) up to t = 80 (its first breach is at t = 88)
    verdict = falsify(golden_system(), parse_exact("1.42"), 8, 80)
    assert verdict.status == "certificate"
    cert = verdict.certificate
    assert cert["contradiction_index"] > cert["from_index"]
    assert verdict.caveats  # horizon honesty is part of the contract
    gap = float(parse_exact("10/7") - parse_exact("1.42"))
    assert cert["theta"] > 1 / gap - 1
    report(
        9,
        "headline gap at desk scale",
        "substituted by criteria 4-5 plus an extrapolated certificate "
        f"(contradiction by index {cert['contradiction_index']})",
    )
