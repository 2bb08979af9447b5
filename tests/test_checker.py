import functools
import random
from collections import Counter
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from freqalloc import checker, systems
from freqalloc.checker import (
    GammaTrace,
    Violation,
    ViolationKind,
    check_competitiveness,
    check_f1,
    check_f2,
    falsify,
    gamma_trace,
    lemma_chain_check,
    min_lambda,
    run_checks,
    shared_stats,
    union_sizes,
)
from freqalloc.frequencies import (
    FrequencySet,
    PoolTag,
    Side,
    union_all,
)
from freqalloc.golden import GoldenNumber, constants, parse_exact
from freqalloc.harness import PhaseRecord, RunReport
from freqalloc.systems import (
    FSystemSpec,
    band_system,
    golden_system,
    half_system,
    trivial_system,
)

from oracles import (
    PRIVATE,
    check_f1_exhaustive,
    check_f2_exhaustive,
    check_f2_sets,
    lemma_sizes_sets,
    mixed_pool_system,
    pool_band,
    pool_prefix,
    row_union_folds,
    set_to_pyset,
    shared_sets_folds,
    union_at,
    union_sizes_sets,
)
from test_systems import generator_bands, golden_padded, reference_half

C = constants()


def mutant_golden_no_padding() -> FSystemSpec:
    """Golden construction with the +4 private padding dropped."""
    base = golden_system()

    def gen(side, t, k):
        full = base.sets(side, t, k)
        pad = pool_prefix(PRIVATE[side], C.alpha * t + 4)
        slim = pool_prefix(PRIVATE[side], C.alpha * t)
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
        return pool_prefix(PRIVATE[side], t // 2 + 1) | pool_band(
            PoolTag.SYMMETRIC, t - k, t
        )

    return FSystemSpec(
        name="half-wide-shared",
        claimed_ratio=GoldenNumber(Fraction(3, 2)),
        claimed_lambda=2,
        generator=gen,
    )


def prefix_system() -> FSystemSpec:
    """Both sides draw symmetric 1..k: nested, with row bands, and its
    sides share 1..k at every level."""

    def gen(side, t, k):
        return FrequencySet([(PoolTag.SYMMETRIC, 1, k + 1)])

    prefix = FSystemSpec(name="prefix", claimed_ratio=GoldenNumber(2),
                         claimed_lambda=0, generator=gen, nested=True)
    return with_row_bands(prefix)


def with_row_bands(sys_: FSystemSpec) -> FSystemSpec:
    """sys_ plus row bands read from its generator, for systems whose sets
    hold at most one band per pool."""

    def row_bands(side, ts, ks):
        return generator_bands(sys_, side, ts, ks)

    return sys_.replace(row_bands_fn=row_bands)


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


def same_level_system() -> FSystemSpec:
    """One plain frequency per set, only at k = 1 and k = 2 on side A and at
    k = 1 on side B.  A(t, 1) and B(t, 1) both hold 10t: a collision at
    level t itself, for t >= 2.  A(t, 2) holds 10t + 25, so side A's hull
    over levels below t covers 10t while its union misses it: the side B
    row meets that history only spuriously."""

    def gen(side, t, k):
        if k == 1:
            i = 10 * t
        elif k == 2 and side is Side.A:
            i = 10 * t + 25
        else:
            return FrequencySet()
        return FrequencySet([(PoolTag.PLAIN, i, i + 1)])

    return FSystemSpec(
        name="same-level",
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


def set_sweep(sys_, t_max, limit=None) -> list:
    """The first limit violations of the bit-row F2 sweep, or all of them."""
    return list(islice(checker._check_f2_sets(sys_, t_max), limit))


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
        assert isinstance(base.row_sizes(Side.A, 5, 5), list)
        banded = with_row_bands(base)
        assert banded.row_sizes(Side.A, 5, 5).dtype == np.int64
        assert check_f1(banded, 25, limit=limit) == want
        # every set one frequency short of k
        short = FSystemSpec(
            name="short",
            claimed_ratio=GoldenNumber(2),
            claimed_lambda=0,
            generator=lambda side, t, k: pool_prefix(PRIVATE[side], k - 1),
        )
        for sys_ in (short, with_row_bands(short)):
            got = check_f1(sys_, 6, limit=limit)
            assert [(v.params["t"], v.params["k"]) for v in got] == [
                (t, k)
                for t in range(1, 7)
                for _ in "AB"
                for k in range(1, t + 1)
            ][: limit or None]


def random_band_system(rng: random.Random) -> FSystemSpec:
    """A band system with small rational rates, most of which break F1."""

    def rate():
        return Fraction(rng.randint(0, 1), rng.randint(1, 4))

    return band_system("random", alpha=rate(), kappa=int(rng.random() < 0.2),
                       pad=rng.randint(0, 3), beta=rate(), rho=rate(),
                       phi=Fraction(rng.randint(1, 6), 2))


class TestF1Oracle:
    """check_f1 against the size of every set, in the same order."""

    @pytest.mark.parametrize(
        "factory", [trivial_system, half_system, golden_system]
    )
    def test_builtins(self, factory):
        assert check_f1(factory(), 150) == check_f1_exhaustive(factory(), 150)

    def test_golden_pad2_at_400(self):
        got = check_f1(golden_padded(2), 400)
        assert got == check_f1_exhaustive(golden_padded(2), 400)
        # F1 is tight for golden at k = t, where two units of padding do not
        # cover the floor losses
        assert len(got) == 198
        assert Counter(v.params["side"] for v in got) == {Side.A: 99,
                                                          Side.B: 99}
        assert all(v.params["k"] == v.params["t"] for v in got)
        levels = [v.params["t"] for v in got[::2]]
        assert levels[:4] == [4, 9, 13, 18] and levels[-1] == 397
        assert [v.params["t"] for v in got[1::2]] == levels

    def test_golden_pad3_clean_to_400(self):
        assert check_f1(golden_padded(3), 400) == []
        assert check_f1_exhaustive(golden_padded(3), 400) == []

    @pytest.mark.parametrize("limit", [None, 1, 4])
    def test_random_band_systems(self, limit):
        broken = 0
        for seed in range(10):
            sys_ = random_band_system(random.Random(seed))
            want = check_f1_exhaustive(sys_, 40)
            broken += bool(want)
            assert check_f1(sys_, 40, limit=limit) == want[:limit], seed
        assert broken >= 5

    @pytest.mark.parametrize("chunk", [7, 50])
    def test_block_boundaries(self, monkeypatch, chunk):
        # with 7 or 50 entries per pass, blocks hold several whole levels
        # or part of one, and both sweeps must still match the oracles
        monkeypatch.setattr(systems, "_ROW_CHUNK", chunk)
        f1_mutants = (golden_padded(2),
                      with_row_bands(mutant_golden_no_padding()))
        for sys_ in (golden_system(), half_system(), *f1_mutants):
            want = check_f1_exhaustive(sys_, 60)
            assert check_f1(sys_, 60) == want
            assert check_f1(sys_, 60, limit=4) == want[:4]
        assert all(check_f1(m, 60) for m in f1_mutants)
        # the mutant collides often, and each collision costs a witness
        # rescan, so it sweeps to 24 only
        f2_mutant = with_row_bands(mutant_half_wide_shared())
        for sys_, t_max in ((golden_system(), 60), (half_system(), 60),
                            (f2_mutant, 24)):
            want = check_f2_sets(sys_, t_max)
            assert set_sweep(sys_, t_max) == want
            assert check_f2(sys_, t_max) == want
            assert check_f2(sys_, t_max, limit=4) == want[:4]
            assert f2_rows(check_f2(sys_, 16)) == exhaustive_f2_rows(sys_, 16)
        assert check_f2(f2_mutant, 16)


def f2_rows(violations) -> set:
    return {(v.params["side"], v.params["t"], v.params["k"])
            for v in violations}


def exhaustive_f2_rows(sys_, t_max) -> set:
    """The rows the reduced sweep reports, from the unreduced quadruple
    scan: each colliding pair anchored at its larger level, ties on side A
    (the scan reports from the side A perspective)."""
    rows = set()
    for v in check_f2_exhaustive(sys_, t_max):
        ta, ka = v.params["t"], v.params["k"]
        tb, kb = v.params["t_other"], v.params["k_other"]
        rows.add((Side.A, ta, ka) if ta >= tb else (Side.B, tb, kb))
    return rows


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
            assert f2_rows(fast) == exhaustive_f2_rows(sys_, 10)
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
        assert check_f2_sets(golden_system(), 150) == []
        assert set_sweep(golden_system(), 150) == []

    @pytest.mark.parametrize("limit", [None, 5])
    def test_mutant_identical_in_order(self, monkeypatch, limit):
        want = check_f2_sets(mutant_half_wide_shared(), 30, limit)
        assert set_sweep(mutant_half_wide_shared(), 30, limit) == want
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
        want = check_f2_sets(sparse_system(seed), 25)
        assert 0 < len(want) < 150  # of 600 (side, t, k) rows
        assert set_sweep(sparse_system(seed), 25) == want
        calls = count_set_sweeps(monkeypatch)
        assert check_f2(with_row_bands(sparse_system(seed)), 25) == want
        assert not calls

    # spread fragments its column unions, apart only its prefix unions
    @pytest.mark.parametrize("factory", [spread_system, apart_system])
    @pytest.mark.parametrize("limit", [None, 3])
    def test_fragmented_unions_stay_on_bands(self, monkeypatch, factory,
                                             limit):
        want = check_f2_sets(factory(), 20, limit)
        assert want
        assert set_sweep(factory(), 20, limit) == want
        calls = count_set_sweeps(monkeypatch)
        assert check_f2(with_row_bands(factory()), 20, limit=limit) == want
        assert not calls

    def test_side_b_witnesses_stop_below_its_level(self, monkeypatch):
        # the side B row's hull hit is spurious below level t, and its real
        # collision at level t belongs to side A's row: a witness scan of
        # side B that reached level t would report that collision twice
        want = check_f2_sets(same_level_system(), 12)
        assert set_sweep(same_level_system(), 12) == want
        calls = count_set_sweeps(monkeypatch)
        got = check_f2(with_row_bands(same_level_system()), 12)
        assert not calls
        assert got == want
        assert f2_rows(got) == exhaustive_f2_rows(same_level_system(), 12)
        assert f2_rows(got) == {(Side.A, t, 1) for t in range(2, 13)}

    def test_witness_scans_only_where_hulls_exceed_unions(self, monkeypatch):
        scans = []
        scan = checker._witness_pair

        def counting(*args):
            scans.append(args[1:])
            return scan(*args)

        monkeypatch.setattr(checker, "_witness_pair", counting)
        # a built-in hull is its union: a clean sweep scans nothing
        for factory in (golden_system, half_system, trivial_system):
            assert check_f2(factory(), 150) == []
        assert not scans
        # spread's hulls cover frequencies its unions miss
        assert len(check_f2(with_row_bands(spread_system()), 20)) == 57
        assert len(scans) == 190

    @pytest.mark.parametrize("factory", [half_system, trivial_system])
    def test_half_and_trivial_match_set_sweep(self, monkeypatch, factory):
        calls = count_set_sweeps(monkeypatch)
        assert check_f2(factory(), 150) == []
        assert not calls, "the system left the band-array sweep"
        assert check_f2_sets(factory(), 150) == []
        assert set_sweep(factory(), 150) == []

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


def without_bands(factory) -> FSystemSpec:
    """A built-in with its row bands and its nestedness stripped, so that
    every check reads its sets."""
    return factory().replace(row_bands_fn=None, nested=False)


BIT_SWEEP_CASES = [
    *(functools.partial(sparse_system, seed) for seed in range(4)),
    spread_system,
    apart_system,
    mixed_pool_system,
    same_level_system,
    mutant_half_wide_shared,
    mutant_golden_no_padding,
    *(functools.partial(without_bands, f)
      for f in (golden_system, half_system, trivial_system)),
]
BIT_SWEEP_IDS = [
    *(f"sparse-{seed}" for seed in range(4)),
    "spread", "apart", "mixed-pools", "same-level", "half-wide-shared",
    "golden-no-padding", "golden-stripped", "half-stripped",
    "trivial-stripped",
]


class TestF2Bits:
    """The bit-row sweep against the FrequencySet set sweep (oracles)."""

    @pytest.mark.parametrize("factory", BIT_SWEEP_CASES, ids=BIT_SWEEP_IDS)
    @pytest.mark.parametrize("limit", [None, 3])
    def test_identical_in_order(self, monkeypatch, factory, limit):
        want = check_f2_sets(factory(), 24, limit)
        calls = count_set_sweeps(monkeypatch)
        assert check_f2(factory(), 24, limit=limit) == want
        assert len(calls) == 1, "a system without row bands left the bit sweep"

    def test_cases_collide(self):
        hits = {name: bool(check_f2_sets(factory(), 24))
                for name, factory in zip(BIT_SWEEP_IDS, BIT_SWEEP_CASES)}
        assert {name for name, hit in hits.items() if not hit} == {
            "mixed-pools", "golden-no-padding", "golden-stripped",
            "half-stripped", "trivial-stripped"}

    @pytest.mark.parametrize("factory", BIT_SWEEP_CASES, ids=BIT_SWEEP_IDS)
    def test_union_sizes_by_popcount(self, factory):
        sys_ = factory()
        assert not sys_.nested
        assert list(union_sizes(sys_, 30)) == union_sizes_sets(sys_, 30)

    @pytest.mark.parametrize("factory", BIT_SWEEP_CASES, ids=BIT_SWEEP_IDS)
    def test_lemma_sizes_by_popcount(self, factory):
        # the chain reader's sizes on bit rows against the same sizes on
        # sets, S_tau from the folded unions; its S_2t reach level 40 and
        # its Z_3t,2t level 60
        sys_ = factory()
        assert not sys_.nested
        evens = range(2, 21, 2)
        assert list(checker._chain_sizes(sys_, evens)) == (
            lemma_sizes_sets(sys_, evens, shared_sets_folds(sys_, 40)))

    def test_equal_keys_share_a_bit(self):
        # the plain and built-in frequencies encoded 3 are two frequencies
        # with two keys: mixed-pools stays clean, and its union counts both
        sys_ = mixed_pool_system()
        row_a = sys_.bit_row(Side.A, 3)
        row_b = sys_.bit_row(Side.B, 3)
        assert len(sys_._bit_of) == 6
        assert all(a & b == 0 for a in row_a for b in row_b)
        assert sys_.bit_row(Side.A, 3) == row_a
        assert dict(union_sizes(sys_, 3))[3] == 6


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

    @pytest.mark.parametrize("t_max", [0, -3])
    @pytest.mark.parametrize("check", [
        lambda t: check_f1(golden_system(), t),
        lambda t: check_f2(golden_system(), t),
        lambda t: check_competitiveness(golden_system(), C.r0, 8, t),
        lambda t: min_lambda(golden_system(), C.r0, t),
    ], ids=["check_f1", "check_f2", "check_competitiveness", "min_lambda"])
    def test_rejects_horizon_below_one(self, check, t_max):
        with pytest.raises(ValueError, match=r"^t_max must be >= 1$"):
            check(t_max)


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

    def test_measured_trace_yields_certificate(self):
        # r = 1 gives theta = 3, so t_0 = 18 fits the budget 54 // 3 and the
        # extrapolation starts from the measured entry.  prefix's sides share
        # 1..k, which breaks F2 from level 2 on: f2_t_max=1 hides that, and
        # the certificate is only as good as its disjointness horizon
        sys_ = prefix_system()
        verdict = falsify(sys_, GoldenNumber(1), 1, 54, f2_t_max=1)
        assert verdict.status == "certificate"
        assert [e.to_json() for e in verdict.trace.entries] == [
            {"i": 0, "t": 18, "set_size": 18, "gamma": "1"}]
        cert = verdict.certificate
        assert (cert["from_index"], cert["steps_needed"],
                cert["contradiction_index"]) == (0, 1, 1)
        assert verdict.caveats[0] == (
            "gamma trace measured 1 of 4 scales; t_theta = 144 exceeds the "
            "horizon budget 18")
        assert falsify(sys_, GoldenNumber(1), 1, 54).status == "refuted"
        # lambda = 0 is traced at lambda = 1, and says so first
        zero = falsify(sys_, GoldenNumber(1), 0, 54, f2_t_max=1)
        assert zero.status == "certificate"
        assert zero.caveats[0].startswith(
            "additive constant 0 was raised to 1 for the trace scales")

    def test_scale_text_is_exact_up_to_index_64(self):
        assert checker.doubling_scale(117, 8, 3) == 6 * 117 * 8 * 8
        assert checker.doubling_scale_text(1, 1, 64) == str(6 * 2**64)
        assert checker.doubling_scale_text(117, 8, 65) == "6*117*8*2^65"

    @pytest.mark.parametrize("sys_", [golden_system(), golden_padded(2)],
                             ids=["golden", "pad2"])
    def test_direct_checks_are_run_checks_first_five(self, sys_):
        # the same claims and horizons: falsify keeps the first five
        # violations of each direct check that run_checks reports
        claim = parse_exact("1.42")
        verdict = falsify(sys_, claim, 8, 100)
        report = run_checks(sys_.replace(claimed_ratio=claim, claimed_lambda=8),
                            f1_t_max=100, f2_t_max=100, comp_t_max=100)
        want = [v for kind in (ViolationKind.F1, ViolationKind.F2,
                               ViolationKind.COMPETITIVENESS)
                for v in [v for v in report.violations if v.kind is kind][:5]]
        assert verdict.status == "refuted"
        assert verdict.horizons == report.horizons
        assert verdict.violations == want
        # golden meets (1.42, 8) up to t = 87; pad 2 breaks F1 from t = 4
        first = report.violations[0]
        assert (first.kind, first.params["t"]) == (
            (ViolationKind.COMPETITIVENESS, 88) if sys_.name == "golden"
            else (ViolationKind.F1, 4))

    def test_padded_f1_stops_in_first_block(self):
        # golden with pad 2 breaks F1 from t = 4, so falsify's F1 sweep to
        # 400 stops at its fifth violation, in the first block of levels
        sys_, passes = counting_bands(golden_padded(2))
        check_f1(sys_, 400)
        f1_passes = len(passes)
        passes.clear()
        verdict = falsify(sys_, parse_exact("1.42"), 8, 400)
        assert [v.kind for v in verdict.violations[:6]] == (
            [ViolationKind.F1] * 5 + [ViolationKind.COMPETITIVENESS])
        assert len(passes) <= f1_passes // 4

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

    @pytest.mark.parametrize(
        "sys_", [golden_system(), without_bands(golden_system)],
        ids=["nested", "stripped"],
    )
    def test_negative_steps_rejected(self, sys_):
        with pytest.raises(ValueError, match="steps"):
            gamma_trace(sys_, C.r0, 1, theta=2, steps=-1)


# The GoldenNumber forms of the four ratio decisions, as the checker made
# them before it compared integers with floor(r*n): differential references.


def reference_check_competitiveness(sys_, r, lam, t_max, limit=None):
    if r < 1:
        raise ValueError("competitive ratio must be >= 1")
    out = []
    for t, size in union_sizes(sys_, t_max):
        if GoldenNumber(size - lam) > r * t:
            out.append(
                Violation(
                    kind=ViolationKind.COMPETITIVENESS,
                    params={"t": t},
                    lhs=f"|U_t| = {size}",
                    rhs=f"r*t + lambda = {r * t + lam}",
                )
            )
            if limit and len(out) >= limit:
                break
    return out


def reference_min_lambda(sys_, r, t_max):
    if r < 1:
        raise ValueError("competitive ratio must be >= 1")
    best = None
    for t, size in union_sizes(sys_, t_max):
        excess = GoldenNumber(size) - r * t
        if best is None or excess > best:
            best = excess
    if best is None:
        raise ValueError("t_max must be >= 1")
    return best


def reference_doubling_bound(prev, r, lam, t):
    return GoldenNumber(2 * prev) + (GoldenNumber(10) - r * 7) * t - 3 * lam


def reference_lemma_chain_check(sys_, r, lam, t_max, shared=None):
    """lemma_chain_check on sets and GoldenNumbers; S_tau from ``shared``
    when given, else from ``checker._shared_sets``."""
    out = []
    if t_max < 2:
        return out
    evens = range(2, t_max + 1, 2)
    if shared is None:
        shared = checker._shared_sets(sys_, [*evens, *(2 * t for t in evens)])

    def overlap(t, k):
        return sys_.sets(Side.A, t, k) & sys_.sets(Side.B, t, k)

    for t in evens:
        s_t, s_2t = shared[t], shared[2 * t]
        s_2t_t = s_2t & (sys_.sets(Side.A, 2 * t, t)
                         | sys_.sets(Side.B, 2 * t, t))
        clash = overlap(2 * t, t)
        if clash:
            out.append(
                Violation(
                    kind=ViolationKind.F2,
                    params={"side": Side.A, "t": 2 * t, "k": t,
                            "t_other": 2 * t, "k_other": t},
                    lhs=f"|overlap| = {len(clash)}",
                    rhs="0",
                    witness=clash,
                )
            )
        z_top = overlap(3 * t, 2 * t)
        s_u_z = s_t | overlap(3 * t // 2, t)
        checks = (
            (
                ViolationKind.SHARED_LOWER,
                len(s_t),
                (GoldenNumber(2) - r) * t - lam,
                f"|S_t| = {len(s_t)}",
                "(2-R)t - lambda",
            ),
            (
                ViolationKind.SHARED_SPLIT_LOWER,
                len(s_2t_t),
                (GoldenNumber(6) - r * 4) * t - 2 * lam,
                f"|S_2t,t| = {len(s_2t_t)}",
                "(6-4R)t - 2*lambda",
            ),
            (
                ViolationKind.SHARED_PACKING,
                len(s_2t - z_top),
                GoldenNumber(len(s_u_z) + len(s_2t_t)),
                f"|S_2t \\ Z_3t,2t| = {len(s_2t - z_top)}",
                f"|S_t u Z| + |S_2t,t| = {len(s_u_z) + len(s_2t_t)}",
            ),
            (
                ViolationKind.CARRY_LOWER,
                len(z_top),
                GoldenNumber(len(s_u_z)) - (r * 3 - 4) * t - lam,
                f"|Z_3t,2t| = {len(z_top)}",
                "|S_t u Z| - (3R-4)t - lambda",
            ),
            (
                ViolationKind.RECURRENCE,
                len(s_2t | z_top),
                reference_doubling_bound(len(s_u_z), r, lam, t),
                f"|S_2t u Z_3t,2t| = {len(s_2t | z_top)}",
                "2|S_t u Z| + (10-7R)t - 3*lambda",
            ),
        )
        for kind, lhs, rhs, lhs_text, rhs_text in checks:
            if not GoldenNumber(lhs) >= rhs:
                out.append(
                    Violation(
                        kind=kind,
                        params={"t": t, "lambda": lam},
                        lhs=lhs_text,
                        rhs=f"{rhs_text} = {rhs}",
                    )
                )
    return out


def reference_gamma_trace(sys_, r, lam, theta, steps):
    if theta < 1 or lam < 1:
        raise ValueError("theta and lambda must be >= 1")
    trace = GammaTrace(theta=theta, lam=lam, entries=[], violations=[])
    scales = [6 * theta * lam * (2**i) for i in range(steps + 1)]
    shared = checker._shared_sets(sys_, [*scales, *(2 * t for t in scales)])
    sizes = []
    for i, t in enumerate(scales):
        size = len(shared[t] | checker._overlap(sys_, 3 * t // 2, t))
        sizes.append(size)
        trace.entries.append(
            checker.GammaEntry(i=i, t=t, numerator_size=size,
                               gamma=Fraction(size, t))
        )
        cap = r * (2 * t) + lam
        s_2t = len(shared[2 * t])
        if GoldenNumber(size) > cap or GoldenNumber(s_2t) > cap:
            trace.violations.append(
                Violation(
                    kind=ViolationKind.GAMMA_CAP,
                    params={"i": i, "t": t},
                    lhs=f"|S u Z| = {size}, |S_2t| = {s_2t}",
                    rhs=f"2R*t + lambda = {cap}",
                )
            )
    for i, t in enumerate(scales[:-1]):
        needed = reference_doubling_bound(sizes[i], r, lam, t)
        if not GoldenNumber(sizes[i + 1]) >= needed:
            trace.violations.append(
                Violation(
                    kind=ViolationKind.GAMMA_STEP,
                    params={"i": i, "t": t},
                    lhs=f"|S u Z at 2t| = {sizes[i + 1]}",
                    rhs=f"2|S u Z at t| + (10-7R)t - 3*lambda = {needed}",
                )
            )
    return trace


@functools.cache
def differential_system(name: str) -> FSystemSpec:
    """The built-ins, and the wide-shared mutant with its sets cached so
    that both forms of each check can afford to rerun it.  The mutant is
    nested (its symmetric band (t-k, t] lies in (0, t]) and holds one band
    per pool, and says both.  A name ending in "-sets" is that system
    stripped as by ``without_bands``, with its sets and bit rows cached as
    a plugin caches them, so that every check reads it on the fold and bit
    paths that a plugin takes."""
    if name.endswith("-sets"):
        base = without_bands(
            functools.partial(differential_system, name.removesuffix("-sets")))
        cached = base.replace(generator=functools.cache(base.generator))
        # cached numbers the keys for its whole life, as a plugin does
        return cached.replace(bit_row_fn=functools.cache(
            lambda side, t, ks: cached.bit_row(side, t, ks=ks)))
    if name != "mutant":
        return {"golden": golden_system, "half": half_system,
                "trivial": trivial_system}[name]()
    base = mutant_half_wide_shared()
    cached = base.replace(generator=functools.cache(base.generator))
    return with_row_bands(cached).replace(nested=True)


DIFF_RATIOS = ["R0", "3/2", "2", "1.42", "10/7-1/100", "1+1/3*sqrt5",
               "18/11-1/11*sqrt5"]
DIFF_LAMBDAS = [-3, 0, 1, 8]
DIFF_BANDED = ["golden", "half", "trivial", "mutant"]
DIFF_STRIPPED = ["golden-sets", "mutant-sets"]
DIFF_SYSTEMS = [*DIFF_BANDED, *DIFF_STRIPPED]


def diff_horizon(name: str) -> int:
    """The competitiveness horizon of a differential case: a "-sets" form
    converts each of its sets to a bit row once, so it stops sooner."""
    return 150 if name.endswith("-sets") else 300


class TestIntegerDecisions:
    """The integer-native decisions against their GoldenNumber forms."""

    @pytest.mark.parametrize("r_text", DIFF_RATIOS)
    @pytest.mark.parametrize("name", DIFF_SYSTEMS)
    def test_match_golden_number_forms(self, name, r_text):
        sys_, r = differential_system(name), parse_exact(r_text)
        top = diff_horizon(name)
        got, want = min_lambda(sys_, r, top), reference_min_lambda(sys_, r, top)
        assert got == want and str(got) == str(want)
        wants = {lam: reference_check_competitiveness(sys_, r, lam, top)
                 for lam in DIFF_LAMBDAS}
        assert check_competitiveness(sys_, r, 8, top) == wants[8]
        # a "-sets" form reads the sizes of its system
        assert list(union_sizes(sys_, top)) == list(union_sizes(
            differential_system(name.removesuffix("-sets")), top))
        for lam in DIFF_LAMBDAS:
            assert check_competitiveness(sys_, r, lam, top) == wants[lam]
            # the reference stops at the limit-th violation
            assert check_competitiveness(sys_, r, lam, top,
                                         limit=3) == wants[lam][:3]
            assert lemma_chain_check(sys_, r, lam, 60) == (
                reference_lemma_chain_check(sys_, r, lam, 60)
            )
            if lam < 1:
                with pytest.raises(ValueError):
                    gamma_trace(sys_, r, lam, theta=1, steps=1)
                continue
            theta, steps = (2, 2) if lam == 1 else (1, 1)
            assert gamma_trace(sys_, r, lam, theta, steps) == (
                reference_gamma_trace(sys_, r, lam, theta, steps)
            )

    def test_every_kind_is_compared(self):
        # the cases above report every kind of ratio inequality but the
        # gamma ones, which need a ratio below 10/7 (a step) or below 1 (a
        # cap); those are compared here.  Each kind is reported both on the
        # band and top-set paths and on the fold and bit paths
        seen = {False: set(), True: set()}
        for name in DIFF_SYSTEMS:
            sys_ = differential_system(name)
            stripped = name in DIFF_STRIPPED
            for r_text in DIFF_RATIOS:
                r = parse_exact(r_text)
                for lam in (1, 8):
                    seen[stripped] |= {
                        v.kind for v in lemma_chain_check(sys_, r, lam, 60)}
                    seen[stripped] |= {v.kind for v in check_competitiveness(
                        sys_, r, lam, diff_horizon(name), limit=1)}
            for r_text in ("1.4", "1/2", "1/2+1/10*sqrt5"):
                r = parse_exact(r_text)
                got = gamma_trace(sys_, r, 1, theta=3, steps=3)
                assert got == reference_gamma_trace(sys_, r, 1, 3, 3)
                seen[stripped] |= {v.kind for v in got.violations}
        for kinds in seen.values():
            assert kinds >= set(ViolationKind) - {ViolationKind.F1}

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("r_text", ["3/2", "2", "4/3", "R0"])
    def test_competitiveness_at_equality(self, seed, r_text):
        # one private prefix per level, of length floor(r*t) + lambda + d
        # with d in {-1, 0, 1}, made nondecreasing: |U_t| - lambda meets
        # floor(r*t), and for rational r often r*t itself, exactly
        r = parse_exact(r_text)
        rng = random.Random(seed)
        lam = rng.choice([0, 1, 8])
        sizes = [0]
        for t in range(1, 151):
            d = rng.choice([-1, 0, 0, 1])
            sizes.append(max(sizes[-1], (r * t).floor() + lam + d))

        def gen(side, t, k):
            if side is Side.B:
                return FrequencySet()
            return pool_prefix(PRIVATE[side], sizes[t])

        sys_ = with_row_bands(FSystemSpec(name="staircase", claimed_ratio=r,
                                          claimed_lambda=lam, generator=gen,
                                          nested=True))
        got = check_competitiveness(sys_, r, lam, 150)
        assert got == reference_check_competitiveness(sys_, r, lam, 150)
        assert [v.params["t"] for v in got] == [
            t for t in range(1, 151) if sizes[t] - lam > (r * t).floor()
        ]
        at_floor = [t for t in range(1, 151)
                    if sizes[t] - lam == (r * t).floor()]
        assert at_floor and not {v.params["t"] for v in got} & set(at_floor)
        assert min_lambda(sys_, r, 150) == reference_min_lambda(sys_, r, 150)
        if r.b == 0:
            exact = [t for t in at_floor if r * t == (r * t).floor()]
            assert exact, "no level met r*t + lambda with equality"
            assert min_lambda(sys_, r, 150) == max(
                Fraction(sizes[t]) - r.a * t for t in range(1, 151)
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_lemma_chain_at_equality(self, seed):
        # trivial shares nothing, so |S_t| >= (2-R)t - lambda reads
        # 0 >= j*t/t0 - j for R = 2 - j/t0 and lambda = j: equality at t0,
        # a violation at every even t above it
        rng = random.Random(seed)
        t0 = rng.randrange(2, 30, 2)
        j = rng.randint(1, t0)
        r = GoldenNumber(2 - Fraction(j, t0))
        got = lemma_chain_check(trivial_system(), r, j, 40)
        assert got == reference_lemma_chain_check(trivial_system(), r, j, 40)
        lower = [v.params["t"] for v in got
                 if v.kind is ViolationKind.SHARED_LOWER]
        assert lower == list(range(t0 + 2, 41, 2))
        assert {(v.kind, v.params["t"]) for v in got} == (
            brute_force_lemma_failures(trivial_system(), r.a, j, 40)
        )

    def test_gamma_step_at_equality(self):
        # trivial measures 0 at every scale (12, 24, 48), so step i needs
        # 0 >= (10 - 7R)t_i - 3; R = 39/28 makes step 0 an equality and
        # breaks step 1
        r = GoldenNumber(Fraction(39, 28))
        got = gamma_trace(trivial_system(), r, 1, theta=2, steps=2)
        assert got == reference_gamma_trace(trivial_system(), r, 1, 2, 2)
        assert [(v.kind, v.params["i"]) for v in got.violations] == [
            (ViolationKind.GAMMA_STEP, 1)
        ]

    def test_run_checks_builds_no_golden_number_per_level(self, monkeypatch):
        signs = []
        sign = GoldenNumber.sign

        def counting_sign(self):
            signs.append(self)
            return sign(self)

        rows = []
        row_union = FSystemSpec.row_union

        def counting_row_union(self, side, t):
            rows.append((side, t))
            return row_union(self, side, t)

        sys_, passes = counting_bands(golden_system())
        monkeypatch.setattr(GoldenNumber, "sign", counting_sign)
        monkeypatch.setattr(FSystemSpec, "row_union", counting_row_union)
        report = run_checks(sys_, comp_t_max=400, lemma_t_max=200)
        assert report.clean()
        # a per-level GoldenNumber comparison would make hundreds
        assert len(signs) <= 10
        assert rows == []
        passes.clear()
        run_checks(sys_, comp_t_max=400)
        # one streamed union sweep for both the violations and min_lambda:
        # no level union, and one band-array pass of levels 1..400 per side
        assert rows == []
        assert passes == [(Side.A, 400), (Side.B, 400)]


def counting_bands(sys_: FSystemSpec) -> tuple[FSystemSpec, list]:
    """sys_ with its row bands wrapped to record (side, entries) of each
    call, and that record."""
    passes = []

    def row_bands(side, ts, ks):
        passes.append((side, len(ts)))
        return sys_.row_bands_fn(side, ts, ks)

    return sys_.replace(row_bands_fn=row_bands), passes


def rational_band_system(seed: int) -> FSystemSpec:
    """A band system with rational rates of denominator at most 4: alpha,
    beta and rho in [0, 1], phi in [1/2, 3], kappa 0 or 1 and pad 0..4."""
    rng = random.Random(seed)

    def rate(lo_halves, hi):
        # p/q in [lo_halves/2, hi]
        q = rng.randint(1, 4)
        return Fraction(rng.randint((lo_halves * q + 1) // 2, hi * q), q)

    return band_system(f"random-{seed}", alpha=rate(0, 1),
                       kappa=rng.randint(0, 1), pad=rng.randint(0, 4),
                       beta=rate(0, 1), rho=rate(0, 1), phi=rate(1, 3))


# (alpha, kappa, pad, beta, rho, phi) of band systems that the four random
# draws miss (each draws kappa = 0, pad = 2 and phi > 1): kappa = 1, pad 0
# and 4, and phi below 1
EXPLICIT_BANDS = [
    (Fraction(1, 2), 1, 0, Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)),
    (Fraction(1, 4), 0, 4, Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)),
    (0, 1, 4, Fraction(1, 4), 1, Fraction(5, 2)),
]


def explicit_band_system(i: int) -> FSystemSpec:
    alpha, kappa, pad, beta, rho, phi = EXPLICIT_BANDS[i]
    return band_system(f"explicit-{i}", alpha=alpha, kappa=kappa, pad=pad,
                       beta=beta, rho=rho, phi=phi)


NESTED_CASES = [golden_system, half_system, trivial_system,
                *(functools.partial(rational_band_system, seed)
                  for seed in range(4)),
                *(functools.partial(explicit_band_system, i)
                  for i in range(len(EXPLICIT_BANDS))),
                functools.partial(differential_system, "mutant")]
NESTED_IDS = ["golden", "half", "trivial",
              *(f"random-{seed}" for seed in range(4)),
              *(f"explicit-{i}" for i in range(len(EXPLICIT_BANDS))),
              "mutant"]


class TestNestedPaths:
    """The band-array and top-set paths of nested systems against the
    folded unions (oracles), which do not use nestedness."""

    @pytest.mark.parametrize("factory", NESTED_CASES, ids=NESTED_IDS)
    def test_match_folds(self, factory):
        # every level up to 300: the union sizes and shared sets at each,
        # and the lemma chain to t = 150, whose S_2t reach level 300
        top = 300
        sys_ = factory()
        assert sys_.nested and sys_.row_bands_fn is not None
        folds = list(enumerate(row_union_folds(sys_, top), 1))
        assert list(union_sizes(sys_, top)) == [
            (t, len(fa | fb)) for t, (fa, fb) in folds]
        shared = {t: fa & fb for t, (fa, fb) in folds}
        assert checker._shared_sets(sys_, shared) == shared
        evens = range(2, top // 2 + 1, 2)
        assert list(checker._lemma_sizes_bands(sys_, evens)) == (
            lemma_sizes_sets(sys_, evens, shared))
        seen = set()
        for r in (sys_.claimed_ratio, parse_exact("1.42"), GoldenNumber(2)):
            for lam in {0, sys_.claimed_lambda}:
                got = lemma_chain_check(sys_, r, lam, top // 2)
                assert got == reference_lemma_chain_check(
                    sys_, r, lam, top // 2, shared)
                seen |= {v.kind for v in got}
        # each case breaks some inequality of the chain at some (r, lambda)
        assert seen

    def test_top_sets_without_row_bands(self):
        # a nested system without row bands reads its lemma chain and its
        # gamma trace on its top sets, as FrequencySets: it numbers no key
        # for a bit row
        sys_ = golden_system().replace(row_bands_fn=None)
        evens = range(2, 41, 2)
        assert list(checker._chain_sizes(sys_, evens)) == lemma_sizes_sets(
            sys_, evens, shared_sets_folds(sys_, 80))
        for r in (sys_.claimed_ratio, parse_exact("1.42"), GoldenNumber(2)):
            for lam in (1, 8):
                assert lemma_chain_check(sys_, r, lam, 40) == (
                    reference_lemma_chain_check(sys_, r, lam, 40))
                assert gamma_trace(sys_, r, lam, theta=2, steps=2) == (
                    reference_gamma_trace(sys_, r, lam, 2, 2))
        assert not sys_._bit_of, "a nested system's chain read bit rows"

    def test_gamma_trace_at_far_levels(self):
        # forty doubling steps from t_0 = 1,920 to about 2.1e15, where the
        # chain reads Z_3t,2t at about 6.3e15: the top sets of a nested
        # system reach any level
        r = parse_exact("1.42")
        got = gamma_trace(golden_system(), r, 8, theta=40, steps=40)
        assert got.entries[-1].t == 6 * 40 * 8 * 2**40
        assert got == reference_gamma_trace(golden_system(), r, 8, 40, 40)

    def test_clash_witness_from_sets(self):
        # the (2t, t) sets meet in 1..t, the one witness the band path
        # builds as a set
        sys_ = prefix_system()
        got = lemma_chain_check(sys_, GoldenNumber(2), 0, 20)
        clashes = [v for v in got if v.kind is ViolationKind.F2]
        assert [v.params["t"] for v in clashes] == list(range(4, 41, 4))
        for v in clashes:
            t = v.params["t"]
            assert v.witness == FrequencySet(
                [(PoolTag.SYMMETRIC, 1, t // 2 + 1)])
        assert got == reference_lemma_chain_check(
            sys_, GoldenNumber(2), 0, 20, shared_sets_folds(sys_, 40))

    def test_banded_system_that_is_not_nested_folds(self):
        # spread's top sets F(A, t, t) = {2t} and F(B, t, t) = {3t} never
        # meet, yet its unions share every multiple of 6: the top-set
        # reading would be wrong, and the fold and bit paths serve it
        sys_, passes = counting_bands(with_row_bands(spread_system()))
        assert not sys_.nested
        shared = shared_sets_folds(sys_, 40)
        assert shared[6] and not checker._overlap(sys_, 6, 6)
        assert list(union_sizes(sys_, 20)) == union_sizes_sets(sys_, 20)
        assert checker._shared_sets(sys_, shared) == shared
        for lam in (0, 4):
            got = lemma_chain_check(sys_, GoldenNumber(2), lam, 20)
            assert got == reference_lemma_chain_check(
                sys_, GoldenNumber(2), lam, 20, shared)
        assert passes == []

    def test_band_passes_are_bounded(self):
        # every band-array call of the union and lemma sweeps holds at most
        # _ROW_CHUNK entries, however far the horizons reach
        sys_, passes = counting_bands(golden_system())
        report = run_checks(sys_, comp_t_max=50_000, lemma_t_max=20_000)
        assert report.clean()
        assert len(passes) > 2 * 50_000 // systems._ROW_CHUNK
        assert max(n for _, n in passes) <= systems._ROW_CHUNK


# each result record, built from fresh fields, with one field to assign
RECORDS = {
    "Violation": (lambda: Violation(
        kind=ViolationKind.F1, params={"t": 1}, lhs="|F| = 0", rhs="k = 1"),
        "witness"),
    "SharedStats": (lambda: checker.SharedStats(
        t=2, s_t=FrequencySet(), s_2t_t=FrequencySet(),
        z_3t2_t=FrequencySet()), "t"),
    "GammaEntry": (lambda: checker.GammaEntry(
        i=0, t=18, numerator_size=18, gamma=Fraction(1)), "gamma"),
    "GammaTrace": (lambda: GammaTrace(
        theta=1, lam=1, entries=[], violations=[]), "entries"),
    "CheckReport": (lambda: checker.CheckReport(
        system="x", claimed_r=GoldenNumber(2), claimed_lambda=0,
        horizons={"f1": 1}, violations=[]), "violations"),
    "FalsifyVerdict": (lambda: checker.FalsifyVerdict(
        system="x", claimed_r=GoldenNumber(1), claimed_lambda=0,
        status="certificate", horizons={}, violations=[], trace=None,
        certificate=None, caveats=[]), "status"),
    "PhaseRecord": (lambda: PhaseRecord(
        t=1, opt=1, distinct_used=1, bound=2, within_bound=True),
        "within_bound"),
    "RunReport": (lambda: RunReport(
        system="x", ratio=GoldenNumber(2), lam=0, phases=[]), "phases"),
}


@pytest.mark.parametrize("make, field", RECORDS.values(), ids=RECORDS.keys())
def test_records_are_immutable_values(make, field):
    # a result record is built once and compared by its fields
    record, twin = make(), make()
    assert record == twin and record is not twin
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(twin, field))
