import functools
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from freqalloc import golden, systems
from freqalloc.checker import check_f2
from freqalloc.frequencies import (
    SIDES,
    FrequencySet,
    PoolTag,
    Side,
    pool_band,
    pool_prefix,
    private_pool,
    shared_pool,
    union_all,
)
from freqalloc.golden import GoldenNumber, constants, floor_linear
from freqalloc.systems import (
    _VEC_LIMIT,
    POOL_COUNT,
    FSystemSpec,
    _floor_linear_vec,
    band_system,
    golden_system,
    half_system,
    trivial_system,
)

from oracles import issubset

C = constants()
P = PoolTag


def generator_bands(sys_, side, t, ks):
    """Per-pool band arrays of F(side, t, k) for k in ks, read from the
    generator of a system whose sets hold at most one band per pool, with
    every empty band written (0, 0)."""
    lo = np.zeros((POOL_COUNT, len(ks)), dtype=np.int64)
    hi = np.zeros_like(lo)
    for j, k in enumerate(ks):
        bands = sys_.sets(side, t, k).bands
        assert len({p for p, _, _ in bands}) == len(bands), bands
        for p, a, b in bands:
            lo[p.rank, j], hi[p.rank, j] = a, b
    return lo, hi


def canonical_bands(lo, hi):
    empty = lo >= hi
    return np.where(empty, 0, lo).tolist(), np.where(empty, 0, hi).tolist()


GOLDEN_RATES = {
    "alpha": C.alpha,
    "beta": C.beta,
    "rho": C.rho,
    "phi": C.phi,
    "phi*beta": C.phi * C.beta,
    "phi*rho": C.phi * C.rho,
}


@functools.lru_cache(maxsize=None)
def golden_floor(rate: str, n: int) -> int:
    """floor(rate * n) for a named golden rate, through GoldenNumber
    arithmetic."""
    return math.floor(GOLDEN_RATES[rate] * n)


def reference_golden(side: Side, t: int, k: int) -> FrequencySet:
    """Same construction evaluated through GoldenNumber arithmetic only."""
    # phi*k is irrational for k >= 1, so phi*k > t exactly when
    # floor(phi*k) >= t
    if golden_floor("phi", k) >= t:
        own_hi, sym_hi = golden_floor("beta", t), golden_floor("rho", t)
    else:
        own_hi = golden_floor("phi*beta", k)
        sym_hi = golden_floor("phi*rho", k)
    return union_all(
        [
            pool_prefix(private_pool(side), golden_floor("alpha", t) + 4),
            pool_band(shared_pool(side), golden_floor("beta", t - k), own_hi),
            pool_band(
                shared_pool(side.other),
                golden_floor("phi*beta", t - k),
                golden_floor("beta", k),
            ),
            pool_band(P.SYMMETRIC, golden_floor("phi*rho", t - k), sym_hi),
        ]
    )


def reference_half(side: Side, t: int, k: int) -> FrequencySet:
    """The half construction as first written: a private prefix of
    floor(t/2) + 1 and symmetric indices in (t - k, floor(t/2)]."""
    bands = [(private_pool(side), 1, t // 2 + 2)]
    lo, hi = max(0, t - k), t // 2
    if hi > lo:
        bands.append((P.SYMMETRIC, lo + 1, hi + 1))
    return FrequencySet(bands)


def reference_trivial(side: Side, t: int, k: int) -> FrequencySet:
    """The trivial construction as first written: the first k private
    frequencies."""
    return pool_prefix(private_pool(side), k)


REFERENCES = {
    "trivial": reference_trivial,
    "half": reference_half,
    "golden": reference_golden,
}


class TestTrivial:
    def test_examples(self):
        tr = trivial_system()
        assert tr.sets(Side.A, 5, 3) == FrequencySet([(P.PRIVATE_A, 1, 4)])
        assert not tr.sets(Side.B, 5, 0)

    def test_union_at_seven(self):
        tr = trivial_system()
        u = union_all(
            tr.sets(s, t, k)
            for s in SIDES
            for t in range(1, 8)
            for k in range(1, t + 1)
        )
        assert len(u) == 14


class TestHalf:
    def test_examples(self):
        hf = half_system()
        big = hf.sets(Side.A, 10, 7)
        assert big == FrequencySet(
            [(P.PRIVATE_A, 1, 7), (P.SYMMETRIC, 4, 6)]
        )
        assert len(big) == 8
        assert hf.sets(Side.A, 10, 3) == FrequencySet([(P.PRIVATE_A, 1, 7)])

    def test_cross_side_shared_disjointness(self):
        hf = half_system()
        b = hf.sets(Side.B, 10, 7)
        a = hf.sets(Side.A, 10, 3)
        shared_only = FrequencySet(
            [x for x in (a & b).bands if x[0] is P.SYMMETRIC]
        )
        assert not shared_only


class TestGolden:
    def test_case1_example(self):
        go = golden_system()
        fs = go.sets(Side.A, 11, 11)
        by_pool = {p: hi - lo for p, lo, hi in fs.bands}
        assert by_pool == {
            P.PRIVATE_A: 8,
            P.SHARED_A: 2,
            P.SHARED_B: 2,
            P.SYMMETRIC: 1,
        }
        assert len(fs) == 13 >= 11

    def test_case2_example(self):
        go = golden_system()
        assert go.sets(Side.A, 20, 8) == FrequencySet([(P.PRIVATE_A, 1, 13)])

    def test_zero_load_row(self):
        go = golden_system()
        for t in (1, 5, 40):
            fs = go.sets(Side.A, t, 0)
            assert all(p is P.PRIVATE_A for p, _, _ in fs.bands)

    def test_matches_exact_arithmetic_reference(self):
        go = golden_system()
        rng = random.Random(17)
        cases = [(t, k) for t in range(1, 45) for k in range(0, t + 1)]
        cases += [
            (t, rng.randint(0, t))
            for t in (rng.randint(50, 3000) for _ in range(150))
        ]
        for t, k in cases:
            for side in SIDES:
                assert go.sets(side, t, k) == reference_golden(side, t, k), (
                    side,
                    t,
                    k,
                )

    def test_floors_memoised_per_system(self, monkeypatch):
        calls = []

        def counting(u, v, w):
            calls.append((u, v, w))
            return floor_linear(u, v, w)

        # the per-rate memos live in golden and floor through its binding
        monkeypatch.setattr(golden, "floor_linear", counting)
        go = golden_system()
        assert check_f2(go, 100) == []
        # six floors for each of the 10,100 sets without the memo; with it,
        # a few per level
        assert len(calls) <= 1000
        top = go.sets(Side.A, 60, 60)
        calls.clear()
        assert golden_system().sets(Side.A, 60, 60) == top
        assert calls, "a new system reused another system's floors"

    @pytest.mark.parametrize(
        "coeffs",
        [
            lambda t, k: (7 * k, -k),
            lambda t, k: (k, 3 * k),
            lambda t, k: (7 * (t - k), -(t - k)),
            lambda t, k: (t - k, 3 * (t - k)),
        ],
        ids=["beta_k", "phi_beta_k", "beta_tk", "phi_beta_tk"],
    )
    def test_vectorised_floor_at_limit(self, coeffs):
        # the row of sizes is vectorised up to t = _VEC_LIMIT; the ends of
        # that row carry the largest k and the largest t - k
        t = _VEC_LIMIT
        k = np.concatenate([
            np.arange(1, 2001, dtype=np.int64),
            np.arange(t - 1999, t + 1, dtype=np.int64),
        ])
        u, v = coeffs(t, k)
        got = _floor_linear_vec(u, v, 22)
        for ui, vi, n in zip(u.tolist(), v.tolist(), got.tolist()):
            assert n == floor_linear(ui, vi, 22), (ui, vi)

    def test_row_sizes_in_chunks(self, monkeypatch):
        # a row longer than the chunk is vectorised chunk by chunk; with
        # 7 k-values per chunk, rows up to 60 cross many chunk boundaries
        monkeypatch.setattr(systems, "_ROW_CHUNK", 7)
        go = golden_system()
        for side in SIDES:
            for t in range(1, 61):
                got = go.row_sizes(side, t)
                assert got.tolist() == [
                    len(go.generator(side, t, k)) for k in range(1, t + 1)
                ], (side, t)

    def test_row_bands_at_limit(self):
        # the floor tables reach n = _VEC_LIMIT, where both ends of the row
        # read the largest entries (k near t, and t - k near t)
        go = golden_system()
        t = _VEC_LIMIT
        for side in SIDES:
            for k_lo, k_hi in ((1, 2001), (t - 1999, t + 1)):
                want = generator_bands(go, side, t, range(k_lo, k_hi))
                got = go.row_bands(side, t, k_lo, k_hi)
                assert canonical_bands(*got) == canonical_bands(*want), (
                    side, k_lo)

    def test_row_bands_rejects_bad_ranges(self):
        go = golden_system()
        for k_lo, k_hi in ((0, 3), (2, 1), (1, 7)):
            with pytest.raises(ValueError):
                go.row_bands(Side.A, 5, k_lo, k_hi)
        no_bands = FSystemSpec(
            name="no-bands",
            claimed_ratio=GoldenNumber(2),
            claimed_lambda=0,
            generator=reference_trivial,
        )
        with pytest.raises(ValueError):
            no_bands.row_bands(Side.A, 5)

    def test_row_sizes_memory_bound(self):
        # a row of two million sets is built from floor tables and chunks of
        # band arrays; neither may grow with the whole row times the pools.
        # The child reports VmHWM, the peak of its own address space:
        # ru_maxrss would carry over this process's peak through fork and exec
        status = Path("/proc/self/status")
        if not status.exists():
            pytest.skip("needs /proc/self/status to read the child's peak")
        code = (
            "from pathlib import Path\n"
            "from freqalloc.frequencies import Side\n"
            "from freqalloc.systems import golden_system\n"
            "sizes = golden_system().row_sizes(Side.A, 2 * 10**6)\n"
            "assert len(sizes) == 2 * 10**6\n"
            "status = Path('/proc/self/status').read_text().splitlines()\n"
            "print(next(x for x in status if x.startswith('VmHWM:')).split()[1])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        peak_mb = int(proc.stdout) / 1024  # VmHWM is in kB
        assert peak_mb < 100, f"row_sizes peaked at {peak_mb:.0f} MB"

    def test_case2_borrowed_band_empty(self):
        # for phi*k <= t the other side's shared band must vanish
        go = golden_system()
        for t in range(1, 90):
            for k in range(0, t + 1):
                if C.phi * k <= t:
                    fs = go.sets(Side.A, t, k)
                    assert not any(
                        p is P.SHARED_B for p, _, _ in fs.bands
                    ), (t, k)

    def test_case1_size_floor(self):
        go = golden_system()
        for t in range(1, 130):
            for k in range(1, t + 1):
                if C.phi * k > t:
                    assert len(go.sets(Side.A, t, k)) >= k


class TestBandSystem:
    def test_claims(self):
        # ratio 2*(alpha + kappa) + 2*beta + rho and constant 2*pad
        claims = {
            sys_.name: (sys_.claimed_ratio, sys_.claimed_lambda)
            for sys_ in (trivial_system(), half_system(), golden_system())
        }
        assert claims == {
            "trivial": (GoldenNumber(2), 0),
            "half": (GoldenNumber(Fraction(3, 2)), 2),
            "golden": (C.r0, 8),
        }

    @pytest.mark.parametrize(
        "param, value",
        [("alpha", -1), ("kappa", -1), ("beta", Fraction(-1, 100)),
         ("rho", -C.rho), ("phi", -C.phi)],
    )
    def test_rejects_negative_rates(self, param, value):
        params = dict(alpha=0, kappa=0, pad=0, beta=C.beta, rho=C.rho, phi=1)
        params[param] = value
        with pytest.raises(ValueError):
            band_system("negative", **params)

    def test_rejects_rates_too_large_for_tables(self):
        # beta*n at n = _VEC_LIMIT would not fit the exact int32 tables
        with pytest.raises(ValueError):
            band_system("steep", alpha=0, kappa=0, pad=0, beta=40, rho=0,
                        phi=1)


# the pools each built-in construction draws from
POOLS = {
    "trivial": {P.PRIVATE_A, P.PRIVATE_B},
    "half": {P.PRIVATE_A, P.PRIVATE_B, P.SYMMETRIC},
    "golden": {P.PRIVATE_A, P.PRIVATE_B, P.SHARED_A, P.SHARED_B, P.SYMMETRIC},
}


@pytest.mark.parametrize(
    "factory", [trivial_system, half_system, golden_system]
)
class TestSpecContracts:
    def test_pool_reachability(self, factory):
        sys_ = factory()
        seen = set()
        for side in SIDES:
            for t in range(1, 40):
                for k in range(0, t + 1):
                    seen |= {p for p, _, _ in sys_.sets(side, t, k).bands}
        assert seen <= POOLS[sys_.name]

    def test_matches_reference(self, factory):
        # the band system against the construction as first written, on
        # every set up to level 300
        sys_ = factory()
        reference = REFERENCES[sys_.name]
        for side in SIDES:
            for t in range(1, 301):
                for k in range(0, t + 1):
                    assert sys_.sets(side, t, k).bands == reference(
                        side, t, k
                    ).bands, (side, t, k)

    def test_row_bands_match_generator(self, factory):
        sys_ = factory()
        for side in SIDES:
            for t in range(1, 301):
                want = generator_bands(sys_, side, t, range(1, t + 1))
                got = sys_.row_bands(side, t)
                assert canonical_bands(*got) == canonical_bands(*want), (side, t)

    def test_determinism(self, factory):
        sys_ = factory()
        rng = random.Random(23)
        for _ in range(200):
            t = rng.randint(1, 200)
            k = rng.randint(0, t)
            side = rng.choice(SIDES)
            assert sys_.sets(side, t, k) == sys_.sets(side, t, k)

    def test_row_union_matches_generic(self, factory):
        sys_ = factory()
        rng = random.Random(29)
        levels = list(range(1, 130)) + [rng.randint(150, 2500) for _ in range(8)]
        for t in levels:
            for side in SIDES:
                generic = union_all(
                    sys_.sets(side, t, k) for k in range(1, t + 1)
                )
                assert sys_.row_union(side, t) == generic, (side, t)

    def test_level_sets_nested_in_top(self, factory):
        sys_ = factory()
        for t in range(1, 100):
            for side in SIDES:
                top = sys_.sets(side, t, t)
                for k in range(1, t + 1):
                    assert issubset(sys_.sets(side, t, k), top)

    def test_rejects_out_of_range(self, factory):
        sys_ = factory()
        with pytest.raises(ValueError):
            sys_.sets(Side.A, 0, 0)
        with pytest.raises(ValueError):
            sys_.sets(Side.A, 3, 4)
        with pytest.raises(ValueError):
            sys_.sets(Side.A, 3, -1)
