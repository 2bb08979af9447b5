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
from freqalloc.checker import check_f1, check_f2
from freqalloc.frequencies import (
    SIDES,
    FrequencySet,
    PoolTag,
    Side,
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

from oracles import PRIVATE, SHARED, issubset, pool_band, pool_prefix

C = constants()
P = PoolTag


def generator_bands(sys_, side, ts, ks):
    """Per-pool band arrays of F(side, t, k) for each (t, k) of ts and ks (a
    level ts alone stands for every k), read from the generator of a system
    whose sets hold at most one band per pool, with every empty band written
    (0, 0)."""
    lo = np.zeros((POOL_COUNT, len(ks)), dtype=np.int64)
    hi = np.zeros_like(lo)
    ts = np.broadcast_to(ts, (len(ks),)).tolist()
    for j, (t, k) in enumerate(zip(ts, ks)):
        bands = sys_.sets(side, t, int(k)).bands
        assert len({p for p, _, _ in bands}) == len(bands), bands
        for p, a, b in bands:
            lo[p.rank, j], hi[p.rank, j] = a, b
    return lo, hi


def golden_padded(pad: int) -> FSystemSpec:
    """Golden with its private padding of 4 set to pad: pad = 2 breaks F1
    at k = t, pad = 3 holds it to level 400 at least."""
    return band_system(f"golden-pad{pad}", alpha=C.alpha, kappa=0, pad=pad,
                       beta=C.beta, rho=C.rho, phi=C.phi)


def floor_calls(monkeypatch) -> list:
    """Record every call through golden's ``floor_linear`` binding, which
    the memos and the scalar lists floor through; the list of calls."""
    calls = []

    def counting(u, v, w):
        calls.append((u, v, w))
        return floor_linear(u, v, w)

    monkeypatch.setattr(golden, "floor_linear", counting)
    return calls


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
            pool_prefix(PRIVATE[side], golden_floor("alpha", t) + 4),
            pool_band(SHARED[side], golden_floor("beta", t - k), own_hi),
            pool_band(
                SHARED[side.other],
                golden_floor("phi*beta", t - k),
                golden_floor("beta", k),
            ),
            pool_band(P.SYMMETRIC, golden_floor("phi*rho", t - k), sym_hi),
        ]
    )


def reference_half(side: Side, t: int, k: int) -> FrequencySet:
    """The half construction as first written: a private prefix of
    floor(t/2) + 1 and symmetric indices in (t - k, floor(t/2)]."""
    bands = [(PRIVATE[side], 1, t // 2 + 2)]
    lo, hi = max(0, t - k), t // 2
    if hi > lo:
        bands.append((P.SYMMETRIC, lo + 1, hi + 1))
    return FrequencySet(bands)


def reference_trivial(side: Side, t: int, k: int) -> FrequencySet:
    """The trivial construction as first written: the first k private
    frequencies."""
    return pool_prefix(PRIVATE[side], k)


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

    def test_scalar_lists_at_their_boundaries(self, monkeypatch):
        # one system grown level by level, and a fresh one per level whose
        # lists end at exactly that level: the lists double at every 2**j
        # and stop at 2**16 entries, past which the memos serve
        levels = sorted({1, 10**12, *(2**j + d for j in range(1, 17)
                                      for d in (-1, 0, 1))})
        grown = golden_system()
        for t in levels:
            for go in (grown, golden_system()):
                for k in sorted({0, 1, t // 2, t}):
                    for side in SIDES:
                        assert go.sets(side, t, k) == reference_golden(
                            side, t, k), (side, t, k)
        calls = floor_calls(monkeypatch)
        # past the bound a set costs its ten memo lookups, and no list grows
        grown.sets(Side.A, 2**16 + 7, 5)
        assert 0 < len(calls) <= 10

    def test_scalar_lists_serve_lower_levels(self, monkeypatch):
        # once a set of level t is built, every set of level at most t reads
        # its floors from the lists
        go = golden_system()
        go.sets(Side.B, 300, 7)
        calls = floor_calls(monkeypatch)
        for t in range(1, 301):
            for k in range(t + 1):
                for side in SIDES:
                    go.sets(side, t, k)
        assert calls == []
        go.sets(Side.A, 301, 1)
        assert calls

    def test_vectorised_floor_matches_scalar(self):
        # random int64 inputs up to the tables' reach, where every value
        # stays below 2**30, with negative u and v; every v below 2**30
        # with m^2 - 5v^2 = +-1, where 5v^2 sits next to a square and a
        # float square root may round across it; and, with their
        # neighbours, the only v up to (2**30 - 1) // 3 whose float root
        # of 5v^2 rounds above isqrt (none rounds below it)
        rng = np.random.default_rng(29)
        bound = 1 << 30
        pell = [(1, 0), (2, 1)]
        while 4 * pell[-2][0] + 9 * pell[-2][1] < bound:
            m, v = pell[-2]
            pell.append((9 * m + 20 * v, 4 * m + 9 * v))
        over = [102334155, 133957148, 173045317, 204668310, 236291303,
                243756479, 267914296, 275379472, 307002465, 314467641,
                338625458, 346090634]
        near = [sign * v for v in [*(v for _, v in pell[1:]),
                                   *(v + d for v in over for d in (-1, 0, 1))]
                for sign in (1, -1)]
        u = rng.integers(-bound + 1, bound, size=20_000 + len(near))
        v = np.concatenate([rng.integers(-bound + 1, bound, size=20_000),
                            np.array(near, dtype=np.int64)])
        for w in (1, 11, 22, 12_345):
            got = _floor_linear_vec(u, v, w).tolist()
            assert got == [floor_linear(a, b, w)
                           for a, b in zip(u.tolist(), v.tolist())], w

    @pytest.mark.parametrize(
        "coeffs",
        [
            lambda t, k: (7 * k, -k, 22),
            lambda t, k: (k, 3 * k, 22),
            lambda t, k: (7 * (t - k), -(t - k), 22),
            lambda t, k: (t - k, 3 * (t - k), 22),
            lambda t, k: (7 * k, -k, 11),
            lambda t, k: (-3 * k, 2 * k, 11),
        ],
        ids=["beta_k", "phi_beta_k", "beta_tk", "phi_beta_tk", "alpha_k",
             "rho_k"],
    )
    def test_vectorised_floor_at_limit(self, coeffs):
        # the row of sizes is vectorised up to t = _VEC_LIMIT; the ends of
        # that row carry the largest k and the largest t - k, and golden's
        # alpha and rho are read at t itself
        t = _VEC_LIMIT
        k = np.concatenate([
            np.arange(1, 2001, dtype=np.int64),
            np.arange(t - 1999, t + 1, dtype=np.int64),
        ])
        u, v, w = coeffs(t, k)
        got = _floor_linear_vec(u, v, w)
        for ui, vi, n in zip(u.tolist(), v.tolist(), got.tolist()):
            assert n == floor_linear(ui, vi, w), (ui, vi)

    def test_row_bands_read_no_scalar_floor(self, monkeypatch):
        # every boundary of a block of levels 1..400, the private ends and
        # the caps included, is gathered from the floor tables
        go = golden_system()
        go.row_bands_fn(Side.A, np.array([400]), np.array([400]))
        calls = []

        def counting(u, v, w):
            calls.append((u, v, w))
            return floor_linear(u, v, w)

        monkeypatch.setattr(golden, "floor_linear", counting)
        ts, ks = systems.level_entries(1, 400)
        for side in SIDES:
            go.row_bands_fn(side, ts, ks)
        assert calls == []

    def test_row_sizes_in_chunks(self, monkeypatch):
        # a row longer than the chunk is vectorised chunk by chunk, and a
        # range of levels in runs of whole levels; with 7 or 50 entries per
        # pass, levels up to 60 cross many pass boundaries
        for sys_ in (golden_system(), half_system(), golden_padded(2)):
            want = {
                side: [[len(sys_.generator(side, t, k))
                        for k in range(1, t + 1)] for t in range(1, 61)]
                for side in SIDES
            }
            for chunk in (7, 50):
                monkeypatch.setattr(systems, "_ROW_CHUNK", chunk)
                for side in SIDES:
                    for t in range(1, 61):
                        got = sys_.row_sizes(side, t, t)
                        assert got.tolist() == want[side][t - 1], (side, t)
                    for t_lo, t_hi in [(1, 60), (5, 17),
                                       *systems.level_blocks(1, 60)]:
                        got = sys_.row_sizes(side, t_lo, t_hi).tolist()
                        assert got == sum(want[side][t_lo - 1 : t_hi], []), (
                            chunk, side, t_lo, t_hi)

    def test_level_blocks(self, monkeypatch):
        # runs of whole levels of at most _ROW_CHUNK entries, each as long as
        # it can be, or one longer level alone; entries in (t, k) order
        for chunk in (1, 7, 50, 1 << 11):
            monkeypatch.setattr(systems, "_ROW_CHUNK", chunk)
            for t_lo, t_hi in ((1, 1), (1, 200), (3, 90), (60, 61)):
                blocks = list(systems.level_blocks(t_lo, t_hi))
                assert [t for a, b in blocks for t in range(a, b + 1)] == list(
                    range(t_lo, t_hi + 1))
                for a, b in blocks:
                    size = (b - a + 1) * (a + b) // 2
                    assert size <= chunk or a == b
                    assert b == t_hi or size + b + 1 > chunk
                    ts, ks = systems.level_entries(a, b)
                    assert list(zip(ts.tolist(), ks.tolist())) == [
                        (t, k) for t in range(a, b + 1) for k in range(1, t + 1)
                    ]

    def test_row_bands_at_limit(self):
        # the floor tables reach n = _VEC_LIMIT, where both ends of the row
        # read the largest entries (k near t, and t - k near t)
        go = golden_system()
        t = _VEC_LIMIT
        for side in SIDES:
            for k_lo, k_hi in ((1, 2001), (t - 1999, t + 1)):
                ks = np.arange(k_lo, k_hi, dtype=np.int64)
                want = generator_bands(go, side, t, ks)
                got = go.row_bands_fn(side, np.full_like(ks, t), ks)
                assert canonical_bands(*got) == canonical_bands(*want), (
                    side, k_lo)

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
            "sizes = golden_system().row_sizes(Side.A, 2 * 10**6, 2 * 10**6)\n"
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

    def test_check_f1_memory_bound(self):
        # check_f1 reads 4.5 million sizes per side to level 3000 in blocks
        # of levels; only the floor tables and one pass may be live at once
        status = Path("/proc/self/status")
        if not status.exists():
            pytest.skip("needs /proc/self/status to read the child's peak")
        code = (
            "from pathlib import Path\n"
            "from freqalloc.checker import check_f1\n"
            "from freqalloc.systems import golden_system\n"
            "assert check_f1(golden_system(), 3000) == []\n"
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
        assert peak_mb < 100, f"check_f1 peaked at {peak_mb:.0f} MB"

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

    def test_steep_rates_build(self):
        # each system's floor tables reach as far as its rates stay exact
        # in int32.  A rational rate u/w reaches while floor(u*n/w) + 1
        # fits: beta = 10**5 to level 21,474.  An irrational one reaches
        # while every value of its vector floor stays below 2**30: alpha =
        # (1 + sqrt5)/10**6 (|u| + 3|v| + w = 10**6 + 4) to level 1,073.
        # Later entries come from the generator, one set at a time
        steep = band_system("steep", alpha=0, kappa=0, pad=0, beta=10**5,
                            rho=0, phi=1)
        fine = functools.partial(
            band_system, "fine",
            alpha=GoldenNumber(Fraction(1, 10**6), Fraction(1, 10**6)),
            kappa=1, pad=0, beta=Fraction(1, 3), rho=Fraction(1, 2), phi=2)
        for sys_, near, far in ((steep, 21_474, 21_475), (fine(), 1073, 1074)):
            entries = [(t, k) for t in (near - 1, near, far, far + 1, 10**12)
                       for k in (1, 2, t // 2, t - 1, t)]
            ts, ks = np.array(entries, dtype=np.int64).T
            for side in SIDES:
                got = sys_.row_bands_fn(side, ts, ks)
                want = generator_bands(sys_, side, ts, ks)
                assert canonical_bands(*got) == canonical_bands(*want), (
                    sys_.name, side)
        # below the reach the tables serve whole levels without the
        # generator; past it each entry is one generator call
        for t, gen_calls in ((1073, 0), (1074, 1074)):
            sys_ = fine()
            ks = np.arange(1, t + 1, dtype=np.int64)
            got = sys_.row_bands_fn(Side.A, np.full_like(ks, t), ks)
            assert sys_.generator.cache_info().misses == gen_calls
            want = generator_bands(sys_, Side.A, t, ks)
            assert canonical_bands(*got) == canonical_bands(*want), t

    def test_table_reach(self):
        # a rational rate's tables end where floor(u*n/w) + 1 would pass
        # int32, or u*n int64; an irrational one's at the 2**30 bound
        for u, w in ((10**5, 1), (7, 3), (2**40, 3), (1, 10**6)):
            n = systems._table_reach(u, 0, w)
            assert u * n // w + 1 < 2**31 <= u * (n + 1) // w + 1
        assert systems._table_reach(10**5, 0, 1) == 21_474
        assert systems._table_reach(2**62, 0, 2**40) == 1
        assert systems._table_reach(0, 0, 1) == _VEC_LIMIT
        assert systems._table_reach(1, 1, 10**6) == 1073
        # a denominator past int64 cannot reach numpy: such a rate's system
        # reads every row band from its generator
        assert systems._table_reach(1, 0, 10**30) == 0
        tiny = band_system("tiny", alpha=Fraction(1, 10**30), kappa=1, pad=0,
                           beta=Fraction(1, 3), rho=Fraction(1, 2), phi=2)
        ts, ks = systems.level_entries(1, 20)
        for side in SIDES:
            got = tiny.row_bands_fn(side, ts, ks)
            want = generator_bands(tiny, side, ts, ks)
            assert canonical_bands(*got) == canonical_bands(*want), side

    def test_rational_rates_reach_the_limit(self):
        # alpha = 10**-6 is rational, so its reach is not the irrational
        # bound (1,073 levels) but _VEC_LIMIT: every row band to level 1,500
        # comes from the tables, and check_f1 to T = 1500 calls no generator
        sys_ = band_system("fine", alpha=Fraction(1, 10**6), kappa=1, pad=0,
                           beta=Fraction(1, 3), rho=Fraction(1, 2), phi=2)
        assert check_f1(sys_, 1500) == []
        for ts, ks in systems._passes(1, 1500):
            for side in SIDES:
                sys_.row_bands_fn(side, ts, ks)
        assert sys_.generator.cache_info().misses == 0
        for t in (1, 1073, 1074, 1500):
            ks = np.arange(1, t + 1, dtype=np.int64)
            for side in SIDES:
                got = sys_.row_bands_fn(side, np.full_like(ks, t), ks)
                want = generator_bands(sys_, side, t, ks)
                assert canonical_bands(*got) == canonical_bands(*want), (
                    side, t)

    def test_pad_beyond_int32(self):
        # the pad and kappa*k are added in int64, past the int32 tables
        sys_ = band_system("padded", alpha=0, kappa=1, pad=2**40,
                           beta=C.beta, rho=C.rho, phi=C.phi)
        ts, ks = systems.level_entries(1, 60)
        for side in SIDES:
            got = sys_.row_bands_fn(side, ts, ks)
            want = generator_bands(sys_, side, ts, ks)
            assert canonical_bands(*got) == canonical_bands(*want), side
            assert int(got[1].max()) == 2**40 + 61


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
                ks = np.arange(1, t + 1, dtype=np.int64)
                want = generator_bands(sys_, side, t, ks)
                got = sys_.row_bands_fn(side, np.full_like(ks, t), ks)
                assert canonical_bands(*got) == canonical_bands(*want), (side, t)

    def test_row_bands_past_limit(self, factory):
        # past the floor tables' limit the bands come from the generator;
        # one call mixes entries below and above the limit
        sys_ = factory()
        entries = [(t, k) for t in (_VEC_LIMIT + 1, 10**12)
                   for k in (1, 2, t // 2, t - 1, t)]
        entries.insert(3, (100, 37))
        ts, ks = np.array(entries, dtype=np.int64).T
        for side in SIDES:
            want = generator_bands(sys_, side, ts, ks)
            got = sys_.row_bands_fn(side, ts, ks)
            assert canonical_bands(*got) == canonical_bands(*want), side

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
        # F(c, t', k) <= F(c, t, t) for k <= t' <= t, the contract of
        # ``nested``: each set lies in its level's top set, and each top set
        # in the next level's, so by transitivity in every later top set
        sys_ = factory()
        assert sys_.nested
        for t in range(1, 100):
            for side in SIDES:
                top = sys_.sets(side, t, t)
                for k in range(1, t + 1):
                    assert issubset(sys_.sets(side, t, k), top)
                if t > 1:
                    assert issubset(sys_.sets(side, t - 1, t - 1), top)
        # and directly, on levels far apart
        rng = random.Random(31)
        for _ in range(300):
            t = rng.randint(1, 3000)
            tp = rng.randint(1, t)
            k = rng.randint(0, tp)
            side = rng.choice(SIDES)
            assert issubset(sys_.sets(side, tp, k), sys_.sets(side, t, t))

    def test_rejects_out_of_range(self, factory):
        sys_ = factory()
        with pytest.raises(ValueError):
            sys_.sets(Side.A, 0, 0)
        with pytest.raises(ValueError):
            sys_.sets(Side.A, 3, 4)
        with pytest.raises(ValueError):
            sys_.sets(Side.A, 3, -1)


class TestBitRow:
    """A generator-only system numbers frequency keys with one map that its
    spec keeps for life."""

    @staticmethod
    def stripped(factory):
        return factory().replace(row_bands_fn=None, nested=False)

    @pytest.mark.parametrize("factory", [trivial_system, golden_system])
    def test_equal_sets_equal_rows_across_sweeps(self, factory):
        # two sweeps of one spec over overlapping levels, as two checks
        # make them: a set has one bit row however often it is read, and
        # distinct sets have distinct rows
        sys_ = self.stripped(factory)
        rows = {}
        for levels in (range(1, 9), range(5, 13)):
            for t in levels:
                for side in SIDES:
                    for k, bits in enumerate(sys_.bit_row(side, t), 1):
                        rows.setdefault(sys_.sets(side, t, k), set()).add(bits)
        assert all(len(bits) == 1 for bits in rows.values())
        assert len({bits for (bits,) in rows.values()}) == len(rows)
        # trivial's side-c sets depend on k alone
        if factory is trivial_system:
            assert len(rows) == 2 * 12

    def test_replace_starts_a_fresh_numbering(self):
        sys_ = self.stripped(trivial_system)
        sys_.bit_row(Side.B, 5)
        copy = sys_.replace(name="copy")
        assert copy._bit_of == {}
        # F(A, 1, 1) is PA1, the first key the copy numbers
        assert copy.bit_row(Side.A, 1) == [1]
        assert len(sys_._bit_of) == 5 and sys_.bit_row(Side.A, 1) == [1 << 5]
        # the numbering is no field a copy can be given, nor is a misspelling
        for unknown in ("_bit_of", "nestd"):
            with pytest.raises(TypeError, match=unknown):
                sys_.replace(**{unknown: {}})

    def test_numbering_is_not_positional(self):
        # a stale numbering passed by position raises rather than landing
        # in ks and selecting no sets
        sys_ = self.stripped(trivial_system)
        with pytest.raises(TypeError):
            sys_.bit_row(Side.A, 3, {})
        assert sys_.bit_row(Side.A, 3, ks=(2,)) == [0b11]
