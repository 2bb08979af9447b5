import dataclasses
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from freqalloc import checker
from freqalloc.checker import (
    ViolationKind,
    check_competitiveness,
    check_f1,
    check_f2,
    check_f2_exhaustive,
    falsify,
    gamma_trace,
    lemma_chain_check,
    min_lambda,
    shared_stats,
    union_at,
    union_sizes,
)
from freqalloc.frequencies import (
    FrequencySet,
    PoolTag,
    Side,
    pool_band,
    pool_prefix,
    private_pool,
    set_to_pyset,
    union_all,
)
from freqalloc.golden import GoldenNumber, constants, parse_exact
from freqalloc.systems import (
    FSystemSpec,
    golden_system,
    half_system,
    trivial_system,
)

from test_systems import generator_bands, reference_half

C = constants()


def mutant_golden_no_padding() -> FSystemSpec:
    """Golden construction with the +4 private padding dropped."""
    base = golden_system()

    def gen(side, t, k):
        full = base.sets(side, t, k)
        pad = pool_prefix(private_pool(side), C.alpha * t + 4)
        slim = pool_prefix(private_pool(side), C.alpha * t)
        return (full - pad) | slim

    return FSystemSpec(
        name="golden-no-padding",
        claimed_ratio=base.claimed_ratio,
        claimed_lambda=base.claimed_lambda,
        generator=gen,
    )


def mutant_half_wide_shared() -> FSystemSpec:
    """Half construction drawing shared tails from the full level prefix."""

    def gen(side, t, k):
        return pool_prefix(private_pool(side), t // 2 + 1) | pool_band(
            PoolTag.SYMMETRIC, t - k, t
        )

    return FSystemSpec(
        name="half-wide-shared",
        claimed_ratio=GoldenNumber(Fraction(3, 2)),
        claimed_lambda=2,
        generator=gen,
    )


def with_row_bands(sys_: FSystemSpec) -> FSystemSpec:
    """sys_ plus row bands read from its generator, for systems whose sets
    hold at most one band per pool."""

    def row_bands(side, t, k_lo, k_hi):
        return generator_bands(sys_, side, t, range(k_lo, k_hi))

    return dataclasses.replace(sys_, row_bands_fn=row_bands)


def spread_system() -> FSystemSpec:
    """One symmetric frequency per set, 2t on side A and 3t on side B, so
    every column union over t is fragmented; A(3) meets B(2)."""

    def gen(side, t, k):
        i = 2 * t if side is Side.A else 3 * t
        return FrequencySet([(PoolTag.SYMMETRIC, i, i + 1)])

    return FSystemSpec(
        name="spread",
        claimed_ratio=GoldenNumber(2),
        claimed_lambda=0,
        generator=gen,
    )


def apart_system() -> FSystemSpec:
    """One symmetric frequency per set, 10k on both sides: each column
    union is one frequency, and the prefix unions are fragmented."""

    def gen(side, t, k):
        return FrequencySet([(PoolTag.SYMMETRIC, 10 * k, 10 * k + 1)])

    return FSystemSpec(
        name="apart",
        claimed_ratio=GoldenNumber(2),
        claimed_lambda=0,
        generator=gen,
    )


def sparse_system(seed: int) -> FSystemSpec:
    """Each set holds, in each shared pool, the band [a, a + 20) with
    1 <= a <= 20 or nothing, at random.  Bands of one pool always overlap,
    so every union is one interval per pool, while which rows meet which
    prefixes depends on every (t, k)."""

    def gen(side, t, k):
        rng = random.Random(f"{seed}:{side.value}:{t}:{k}")
        return FrequencySet(
            (p, a, a + 20)
            for p in (PoolTag.SHARED_A, PoolTag.SHARED_B, PoolTag.SYMMETRIC)
            if rng.random() < 0.04
            for a in [rng.randint(1, 20)]
        )

    return FSystemSpec(
        name=f"sparse-{seed}",
        claimed_ratio=GoldenNumber(2),
        claimed_lambda=0,
        generator=gen,
    )


def count_set_sweeps(monkeypatch) -> list:
    calls = []
    sweep = checker._check_f2_sets

    def counting(*args):
        calls.append(args[1:])
        return sweep(*args)

    monkeypatch.setattr(checker, "_check_f2_sets", counting)
    return calls


class TestF1:
    def test_builtins_clean(self):
        assert not check_f1(golden_system(), 300)
        assert not check_f1(trivial_system(), 120)
        assert not check_f1(half_system(), 120)

    def test_mutant_fails_small(self):
        violations = check_f1(mutant_golden_no_padding(), 30)
        assert violations
        first = violations[0]
        assert first.params["t"] == 1 and first.params["k"] == 1
        # the reported inequality re-validates
        sys_ = mutant_golden_no_padding()
        fs = sys_.sets(first.params["side"], first.params["t"], first.params["k"])
        assert len(fs) < first.params["k"]


    @pytest.mark.parametrize("limit", [None, 4])
    def test_row_size_kinds(self, limit):
        # row_sizes is a list for a system without row bands and an int64
        # array of band widths for one with them
        base = mutant_golden_no_padding()
        want = check_f1(base, 25, limit=limit)
        assert want
        assert isinstance(base.row_sizes(Side.A, 5), list)
        banded = with_row_bands(base)
        assert banded.row_sizes(Side.A, 5).dtype == np.int64
        assert check_f1(banded, 25, limit=limit) == want
        # every set one frequency short of k
        short = FSystemSpec(
            name="short",
            claimed_ratio=GoldenNumber(2),
            claimed_lambda=0,
            generator=lambda side, t, k: pool_prefix(private_pool(side), k - 1),
        )
        for sys_ in (short, with_row_bands(short)):
            got = check_f1(sys_, 6, limit=limit)
            assert [(v.params["t"], v.params["k"]) for v in got] == [
                (t, k)
                for t in range(1, 7)
                for _ in "AB"
                for k in range(1, t + 1)
            ][: limit or None]


class TestF2:
    def test_builtins_clean(self):
        assert not check_f2(golden_system(), 70)
        assert not check_f2(half_system(), 70)
        assert not check_f2(trivial_system(), 70)

    def test_mutant_collides_with_witness(self):
        violations = check_f2(mutant_half_wide_shared(), 12)
        assert violations
        v = violations[0]
        sys_ = mutant_half_wide_shared()
        a = sys_.sets(v.params["side"], v.params["t"], v.params["k"])
        b = sys_.sets(
            v.params["side"].other, v.params["t_other"], v.params["k_other"]
        )
        assert v.params["k"] + v.params["k_other"] <= max(
            v.params["t"], v.params["t_other"]
        )
        assert v.witness == (a & b) and v.witness

    def test_reduced_sweep_matches_exhaustive(self):
        # the reduced sweep reports one witness per offending set, anchored
        # at the pair's larger level (ties anchor on side A); reconstruct
        # those anchors from the unreduced quadruple scan and compare
        for sys_ in (
            mutant_half_wide_shared(),
            with_row_bands(mutant_half_wide_shared()),
            golden_system(),
            half_system(),
        ):
            fast = check_f2(sys_, 10)
            slow = check_f2_exhaustive(sys_, 10)
            fast_rows = {
                (v.params["side"], v.params["t"], v.params["k"]) for v in fast
            }
            slow_rows = set()
            for v in slow:  # exhaustive reports from the A perspective
                ta, ka = v.params["t"], v.params["k"]
                tb, kb = v.params["t_other"], v.params["k_other"]
                if ta >= tb:
                    slow_rows.add((Side.A, ta, ka))
                else:
                    slow_rows.add((Side.B, tb, kb))
            assert fast_rows == slow_rows
            for v in fast:  # every reported pair is a genuine collision
                a = sys_.sets(v.params["side"], v.params["t"], v.params["k"])
                b = sys_.sets(
                    v.params["side"].other,
                    v.params["t_other"],
                    v.params["k_other"],
                )
                assert a & b == v.witness


class TestF2Bands:
    """The band-array sweep against the set sweep it replaces."""

    def test_golden_matches_set_sweep(self, monkeypatch):
        calls = count_set_sweeps(monkeypatch)
        assert check_f2(golden_system(), 150) == []
        assert not calls, "golden left the band-array sweep"
        assert checker._check_f2_sets(golden_system(), 150, None) == []

    @pytest.mark.parametrize("limit", [None, 5])
    def test_mutant_identical_in_order(self, monkeypatch, limit):
        want = checker._check_f2_sets(mutant_half_wide_shared(), 30, limit)
        calls = count_set_sweeps(monkeypatch)
        got = check_f2(with_row_bands(mutant_half_wide_shared()), 30,
                       limit=limit)
        assert not calls, "the mutant left the band-array sweep"
        assert got == want
        assert len(got) == 5 if limit else len(got) > 5

    @pytest.mark.parametrize("seed", range(4))
    def test_sparse_rows_identical_in_order(self, monkeypatch, seed):
        # hits here are few and scattered, so a row tested against the
        # wrong prefix, or a prefix one column off, changes the result
        want = checker._check_f2_sets(sparse_system(seed), 25, None)
        assert 0 < len(want) < 150  # of 600 (side, t, k) rows
        calls = count_set_sweeps(monkeypatch)
        assert check_f2(with_row_bands(sparse_system(seed)), 25) == want
        assert not calls

    # spread fragments its column unions, apart only its prefix unions
    @pytest.mark.parametrize("factory", [spread_system, apart_system])
    @pytest.mark.parametrize("limit", [None, 3])
    def test_fragmented_unions_fall_back(self, monkeypatch, factory, limit):
        want = checker._check_f2_sets(factory(), 20, limit)
        assert want
        calls = count_set_sweeps(monkeypatch)
        assert check_f2(with_row_bands(factory()), 20, limit=limit) == want
        assert len(calls) == 1

    @pytest.mark.parametrize("factory", [half_system, trivial_system])
    def test_half_and_trivial_match_set_sweep(self, monkeypatch, factory):
        calls = count_set_sweeps(monkeypatch)
        assert check_f2(factory(), 150) == []
        assert not calls, "the system left the band-array sweep"
        assert checker._check_f2_sets(factory(), 150, None) == []

    def test_systems_without_bands_take_the_set_sweep(self, monkeypatch):
        calls = count_set_sweeps(monkeypatch)
        half_sets = FSystemSpec(
            name="half-sets",
            claimed_ratio=GoldenNumber(Fraction(3, 2)),
            claimed_lambda=2,
            generator=reference_half,
        )
        assert check_f2(half_sets, 20) == []
        assert len(calls) == 1


class TestCompetitiveness:
    def test_trivial_exact(self):
        sizes = dict(union_sizes(trivial_system(), 300))
        assert all(sizes[t] == 2 * t for t in range(1, 301))
        assert not check_competitiveness(
            trivial_system(), GoldenNumber(2), 0, 300
        )

    def test_trivial_fails_below_two(self):
        r = GoldenNumber(2) - GoldenNumber(Fraction(1, 1000))
        violations = check_competitiveness(trivial_system(), r, 0, 50)
        assert violations and violations[0].params["t"] == 1

    def test_golden_and_half_clean(self):
        assert not check_competitiveness(golden_system(), C.r0, 8, 1500)
        assert not check_competitiveness(
            half_system(), GoldenNumber(Fraction(3, 2)), 2, 1500
        )

    def test_incremental_union_matches_scratch(self):
        rng = random.Random(41)
        checkpoints = sorted(rng.sample(range(1, 220), 20))
        for sys_ in (golden_system(), half_system(), trivial_system()):
            sizes = dict(union_sizes(sys_, max(checkpoints)))
            for t in checkpoints:
                assert sizes[t] == len(union_at(sys_, t)), (sys_.name, t)

    def test_min_lambda(self):
        assert min_lambda(trivial_system(), GoldenNumber(2), 400) == 0
        assert min_lambda(
            half_system(), GoldenNumber(Fraction(3, 2)), 400
        ) == 2
        ml = min_lambda(golden_system(), C.r0, 400)
        assert ml <= 8

    def test_rejects_ratio_below_one(self):
        with pytest.raises(ValueError):
            check_competitiveness(
                trivial_system(), GoldenNumber(Fraction(1, 2)), 0, 10
            )


def brute_force_stats(sys_, t):
    """S_t, S_2t, S_2t,t and Z_3t/2,t by raw enumeration of generated sets."""
    def cum(side, lvl):
        return set_to_pyset(union_all(
            sys_.sets(side, tau, k)
            for tau in range(1, lvl + 1)
            for k in range(1, tau + 1)
        ))

    s_t = cum(Side.A, t) & cum(Side.B, t)
    s_2t = cum(Side.A, 2 * t) & cum(Side.B, 2 * t)
    used = set_to_pyset(sys_.sets(Side.A, 2 * t, t)) | set_to_pyset(
        sys_.sets(Side.B, 2 * t, t)
    )
    return s_t, s_2t, s_2t & used, brute_force_overlap(sys_, 3 * t // 2, t)


def brute_force_overlap(sys_, t, k):
    return set_to_pyset(sys_.sets(Side.A, t, k)) & set_to_pyset(
        sys_.sets(Side.B, t, k)
    )


def brute_force_lemma_failures(sys_, r, lam, t_max):
    """(kind, t) of every failing chain inequality, from raw enumeration and
    rational arithmetic (r is a Fraction)."""
    failing = set()
    for t in range(2, t_max + 1, 2):
        s_t, s_2t, s_2t_t, z = brute_force_stats(sys_, t)
        z_top = brute_force_overlap(sys_, 3 * t, 2 * t)
        s_u_z = len(s_t | z)
        holds = {
            ViolationKind.SHARED_LOWER: len(s_t) >= (2 - r) * t - lam,
            ViolationKind.SHARED_SPLIT_LOWER:
                len(s_2t_t) >= (6 - 4 * r) * t - 2 * lam,
            ViolationKind.SHARED_PACKING:
                len(s_2t - z_top) >= s_u_z + len(s_2t_t),
            ViolationKind.CARRY_LOWER:
                len(z_top) >= s_u_z - (3 * r - 4) * t - lam,
            ViolationKind.RECURRENCE:
                len(s_2t | z_top) >= 2 * s_u_z + (10 - 7 * r) * t - 3 * lam,
        }
        failing |= {(kind, t) for kind, ok in holds.items() if not ok}
    return failing


class TestSharedStats:
    def test_trivial_all_empty(self):
        st = shared_stats(trivial_system(), 20)
        assert not st.s_t and not st.s_2t_t and not st.z_3t2_t

    def test_golden_at_100(self):
        st = shared_stats(golden_system(), 100)
        assert GoldenNumber(len(st.s_t)) >= (GoldenNumber(2) - C.r0) * 100 - 8
        assert (
            GoldenNumber(len(st.s_2t_t))
            >= (GoldenNumber(6) - C.r0 * 4) * 100 - 16
        )
        # frozen values, verified by the brute-force enumeration below
        assert len(st.s_t) == 55
        assert len(st.s_2t_t) == 28
        assert len(st.z_3t2_t) == 18

    @pytest.mark.parametrize("t", [2, 6, 10, 16, 30])
    def test_matches_brute_force(self, t):
        for sys_ in (golden_system(), half_system()):
            st = shared_stats(sys_, t)
            s_t, _, s_2t_t, z = brute_force_stats(sys_, t)
            assert set_to_pyset(st.s_t) == s_t
            assert set_to_pyset(st.s_2t_t) == s_2t_t
            assert set_to_pyset(st.z_3t2_t) == z

    def test_requires_even(self):
        with pytest.raises(ValueError):
            shared_stats(golden_system(), 7)


class TestLemmaChain:
    def test_builtins_clean(self):
        assert not lemma_chain_check(golden_system(), C.r0, 8, 120)
        assert not lemma_chain_check(
            half_system(), GoldenNumber(Fraction(3, 2)), 2, 120
        )
        # shares nothing, so every inequality bottoms out at ratio 2
        assert not lemma_chain_check(trivial_system(), GoldenNumber(2), 0, 600)

    def test_flags_inconsistent_claims(self):
        # the trivial family shares nothing, so a sub-2 ratio claim breaks
        # the shared-size floor immediately
        violations = lemma_chain_check(
            trivial_system(), GoldenNumber(Fraction(3, 2)), 0, 40
        )
        assert violations
        assert any(v.kind is ViolationKind.SHARED_LOWER for v in violations)

    @pytest.mark.parametrize(
        "factory, r, lam, counts",
        [
            (golden_system, "13/10", 0, {"shared_lower": 10,
             "shared_split_lower": 10, "carry_lower": 8, "recurrence": 10}),
            (half_system, "6/5", 1, {"shared_lower": 9,
             "shared_split_lower": 10, "carry_lower": 9, "recurrence": 9}),
        ],
        ids=["golden", "half"],
    )
    def test_matches_brute_force(self, factory, r, lam, counts):
        sys_ = factory()
        violations = lemma_chain_check(sys_, parse_exact(r), lam, 20)
        reported = [(v.kind, v.params["t"]) for v in violations]
        assert len(reported) == len(set(reported))
        assert set(reported) == brute_force_lemma_failures(
            sys_, Fraction(r), lam, 20
        )
        assert Counter(kind.value for kind, _ in reported) == counts


class TestRunChecks:
    def test_clean_report(self):
        from freqalloc.checker import run_checks

        report = run_checks(
            golden_system(), f1_t_max=60, f2_t_max=30, comp_t_max=60,
            lemma_t_max=40,
        )
        assert report.clean()
        assert report.min_lambda_on_horizon <= 8
        doc = report.to_json()
        assert doc["violation_count"] == 0
        assert doc["horizons"] == {
            "f1": 60, "f2": 30, "competitiveness": 60, "lemma_chain": 40,
        }

    def test_skipped_checks_not_reported(self):
        from freqalloc.checker import run_checks

        report = run_checks(trivial_system(), f1_t_max=20)
        assert report.horizons == {"f1": 20}
        assert report.min_lambda_on_horizon is None


class TestFalsify:
    def test_golden_claiming_142_refuted(self):
        verdict = falsify(golden_system(), parse_exact("1.42"), 8, 1000)
        assert verdict.status == "refuted"
        v = verdict.violations[0]
        assert v.kind is ViolationKind.COMPETITIVENESS
        t = v.params["t"]
        assert t <= 1000
        # re-validate the witness from scratch
        size = len(union_at(golden_system(), t))
        assert GoldenNumber(size - 8) > parse_exact("1.42") * t

    def test_trivial_claiming_ten_sevenths_refuted_at_one(self):
        verdict = falsify(
            trivial_system(), parse_exact("10/7-1/100"), 0, 100
        )
        assert verdict.status == "refuted"
        assert verdict.violations[0].params["t"] == 1

    def test_passing_horizon_yields_certificate(self):
        # golden meets (1.42, 8) up to t = 80, so the verdict is an
        # extrapolated contradiction, not an in-horizon witness
        verdict = falsify(golden_system(), parse_exact("1.42"), 8, 80)
        assert verdict.status == "certificate"
        assert verdict.certificate["contradiction_index"] >= 1
        assert verdict.caveats

    def test_rejects_claims_at_or_above_ten_sevenths(self):
        with pytest.raises(ValueError):
            falsify(golden_system(), parse_exact("10/7"), 8, 50)
        with pytest.raises(ValueError):
            falsify(golden_system(), parse_exact("1.44"), 8, 50)


class TestGammaTrace:
    def test_measures_golden_cleanly(self):
        # theta=2, lambda=1: scales 12, 24, 48; golden is far above 10/7 so
        # only the mechanical bookkeeping is exercised here
        trace = gamma_trace(
            golden_system(), C.r0, 1, theta=2, steps=2
        )
        assert [e.t for e in trace.entries] == [12, 24, 48]
        for e in trace.entries:
            s_t, _, _, z = brute_force_stats(golden_system(), e.t)
            assert e.numerator_size == len(s_t | z)
            assert e.gamma == Fraction(len(s_t | z), e.t)

    @pytest.mark.parametrize(
        "factory, steps",
        [(half_system, [1, 2]), (trivial_system, [0, 1, 2])],
        ids=["half", "trivial"],
    )
    def test_step_violations(self, factory, steps):
        trace = gamma_trace(factory(), parse_exact("1.4"), 1, theta=3, steps=3)
        assert [(v.kind, v.params["i"]) for v in trace.violations] == [
            (ViolationKind.GAMMA_STEP, i) for i in steps
        ]
