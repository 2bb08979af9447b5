import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqalloc.frequencies import (
    KEY_BY_RANK,
    POOL_COUNT,
    Frequency,
    FrequencySet,
    PoolTag,
    Side,
    union_all,
)
from freqalloc.golden import GoldenNumber, constants

from oracles import (
    from_indices,
    issubset,
    normalize_reference,
    pool_band,
    pool_prefix,
    set_to_pyset,
)

C = constants()
POOLS = list(PoolTag)
BUILTIN = [p for p in PoolTag if p is not PoolTag.PLAIN]


class TestSide:
    def test_involution(self):
        assert Side.A.other is Side.B
        assert Side.B.other is Side.A
        assert Side.A.other.other is Side.A


class TestEncoding:
    def test_interleaving_row(self):
        got = [
            Frequency(p, i).encode()
            for p, i in [
                (PoolTag.PRIVATE_A, 1),
                (PoolTag.PRIVATE_B, 1),
                (PoolTag.SHARED_A, 1),
                (PoolTag.SHARED_B, 1),
                (PoolTag.SYMMETRIC, 1),
                (PoolTag.PRIVATE_A, 2),
            ]
        ]
        assert got == [1, 2, 3, 4, 5, 6]

    def test_plain_identity(self):
        assert Frequency(PoolTag.PLAIN, 7).encode() == 7

    def test_bijection(self):
        # the five built-in pools' indices up to N encode onto exactly 1..5N
        n = 1000
        codes = [
            Frequency(p, i).encode() for p in BUILTIN for i in range(1, n + 1)
        ]
        assert sorted(codes) == list(range(1, 5 * n + 1))

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Frequency(PoolTag.SYMMETRIC, 0)


class TestFrequencyOrder:
    def test_total_order_is_encoding_order(self):
        freqs = [Frequency(p, i) for p in BUILTIN for i in range(1, 30)]
        by_enc = sorted(freqs, key=Frequency.encode)
        assert sorted(freqs) == by_enc

    def test_keys_over_all_pools(self):
        # one key per frequency of all six pools: distinct, sorting in
        # canonical order (encoding, then pool rank), stepping by the pool's
        # scale, and carrying the encoding in its quotient by POOL_COUNT
        freqs = [Frequency(p, i) for p in POOLS for i in range(1, 60)]
        keys = [f._key() for f in freqs]
        assert len(set(keys)) == len(freqs)
        canonical = sorted(freqs, key=lambda f: (f.encode(), f.pool.rank))
        assert sorted(freqs, key=Frequency._key) == canonical
        assert sorted(freqs) == canonical
        for f, key in zip(freqs, keys):
            assert f.encode() == key // POOL_COUNT
            assert key % POOL_COUNT == f.pool.rank
            scale = KEY_BY_RANK[f.pool.rank][0]
            assert Frequency(f.pool, f.index + 1)._key() == key + scale
        # plain i and the built-in frequency encoded i: equal encodings,
        # ordered by rank
        assert Frequency(PoolTag.SHARED_A, 1) < Frequency(PoolTag.PLAIN, 3)
        assert Frequency(PoolTag.PLAIN, 2) < Frequency(PoolTag.SHARED_A, 1)


def random_band_set(rng: random.Random) -> FrequencySet:
    bands = []
    for _ in range(rng.randint(0, 6)):
        pool = rng.choice(POOLS)
        lo = rng.randint(1, 40)
        hi = lo + rng.randint(0, 12)
        bands.append((pool, lo, hi))
    return FrequencySet(bands)


def split_band_set(rng: random.Random) -> tuple[FrequencySet, FrequencySet]:
    """Two sets whose bands overlap, touch (hi == lo) and nest across the
    pair, drawn from one to three pools (PLAIN included)."""
    pools = rng.sample(POOLS, rng.randint(1, 3))
    bands = []
    for _ in range(rng.randint(1, 6)):
        pool = rng.choice(pools)
        lo = rng.randint(1, 30)
        hi = lo + rng.randint(1, 10)
        bands.append((pool, lo, hi))
        shape = rng.randrange(4)
        if shape == 0:  # touching
            bands.append((pool, hi, hi + rng.randint(1, 5)))
        elif shape == 1:  # nested
            inner = rng.randint(lo, hi - 1)
            bands.append((pool, inner, rng.randint(inner + 1, hi)))
        elif shape == 2:  # overlapping
            bands.append(
                (pool, rng.randint(lo, hi - 1), hi + rng.randint(1, 5))
            )
    rng.shuffle(bands)
    cut = rng.randint(0, len(bands))
    return FrequencySet(bands[:cut]), FrequencySet(bands[cut:])


class TestSetOps:
    def test_ops_against_plain_sets(self):
        rng = random.Random(5)
        for _ in range(3000):
            a, b = random_band_set(rng), random_band_set(rng)
            pa, pb = set_to_pyset(a), set_to_pyset(b)
            assert set_to_pyset(a | b) == pa | pb
            assert set_to_pyset(a & b) == pa & pb
            assert set_to_pyset(a - b) == pa - pb
            assert len(a) == len(pa)
            assert a.isdisjoint(b) == pa.isdisjoint(pb)
            assert issubset(a, b) == pa.issubset(pb)

    def test_union_is_canonical(self):
        # a union must give the very bands the constructor does, or == and
        # hash break on equal sets; the Python-set oracle above cannot see it
        rng = random.Random(11)
        for _ in range(3000):
            a, b = split_band_set(rng)
            assert (a | b).bands == FrequencySet(a.bands + b.bands).bands
            assert (b | a).bands == (a | b).bands

    def test_meet_and_difference_are_canonical(self):
        # & and - build their bands unnormalized, so they must come out as
        # the constructor would give them, or == and hash break on equal
        # sets: on split pairs, and on sets of one band per frequency
        # against each other and against one wide band
        rng = random.Random(14)
        pairs = [split_band_set(rng) for _ in range(3000)]
        for _ in range(100):
            a = from_indices(PoolTag.PLAIN, rng.sample(range(2, 800, 2), 200))
            b = from_indices(PoolTag.PLAIN,
                             rng.sample(range(1, 800), rng.randint(1, 300)))
            lo = rng.randint(1, 600)
            wide = FrequencySet([(PoolTag.PLAIN, lo, lo + rng.randint(1, 200))])
            pairs += [(a, b), (a, wide)]
        assert max(len(a.bands) for a, _ in pairs) == 200
        for x, y in pairs:
            for a, b in ((x, y), (y, x)):
                for got in (a & b, a - b):
                    assert got.bands == FrequencySet(got.bands).bands

    def test_union_of_fragmented_sets(self):
        # one band per frequency, the shape plugin sets arrive in
        rng = random.Random(12)
        for _ in range(100):
            a = from_indices(
                PoolTag.PLAIN, rng.sample(range(1, 400), 200)
            )
            b = from_indices(
                PoolTag.PLAIN, rng.sample(range(1, 400), rng.randint(1, 200))
            )
            lo = rng.randint(1, 300)
            wide = FrequencySet(
                [(PoolTag.PLAIN, lo, lo + rng.randint(1, 100))]
            )
            for x, y in ((a, b), (a, wide), (wide, a)):
                assert (x | y).bands == FrequencySet(x.bands + y.bands).bands
        assert len(a.bands) > 50

    def test_union_never_normalizes(self):
        # a union equals, and hashes as, the set built from both operands'
        # bands
        rng = random.Random(13)
        pairs = [split_band_set(rng) for _ in range(500)]
        want = [FrequencySet(a.bands + b.bands) for a, b in pairs]
        for (a, b), w in zip(pairs, want):
            got = a | b
            assert got == w and hash(got) == hash(w)

    @pytest.mark.parametrize("seed", range(4))
    def test_normalize_matches_reference(self, seed):
        # the keyless sort against the key-function sort it replaced, on
        # lists mixing empty, touching, overlapping and repeated bands of
        # several pools; union_all sorts through the same function
        rng = random.Random(seed)
        for _ in range(500):
            bands = []
            for _ in range(rng.randint(0, 12)):
                pool = rng.choice(POOLS[: rng.randint(1, len(POOLS))])
                lo = rng.randint(1, 20)
                hi = lo + rng.choice((-2, 0, 0, 1, 1, 2, 5))
                bands.append((pool, lo, hi))
            if bands and rng.random() < 0.5:
                p, lo, hi = rng.choice(bands)
                bands.append((p, hi, hi + rng.randint(0, 3)))  # touching
            want = normalize_reference(bands)
            got = FrequencySet(bands).bands
            assert got == want, bands
            assert all(p is q for (p, _, _), (q, _, _) in zip(got, want))
            cut = rng.randint(0, len(bands))
            parts = [FrequencySet(bands[:cut]), FrequencySet(bands[cut:])]
            assert union_all(parts).bands == want

    def test_equality_is_canonical(self):
        a = FrequencySet(
            [(PoolTag.SYMMETRIC, 1, 3), (PoolTag.SYMMETRIC, 3, 5)]
        )
        b = FrequencySet([(PoolTag.SYMMETRIC, 1, 5)])
        assert a == b and hash(a) == hash(b)

    def test_iteration_canonical_order(self):
        rng = random.Random(6)
        for _ in range(300):
            s = random_band_set(rng)
            encs = [e for e, _, _ in s.iter_encoded()]
            assert encs == sorted(encs)
            assert [f.pool for f in s] == [p for _, p, _ in s.iter_encoded()]

    def test_contains(self):
        s = FrequencySet([(PoolTag.SHARED_A, 2, 5)])
        assert Frequency(PoolTag.SHARED_A, 4) in s
        assert Frequency(PoolTag.SHARED_A, 5) not in s
        assert Frequency(PoolTag.SHARED_B, 4) not in s


class TestPoolPrefix:
    def test_examples(self):
        assert pool_prefix(PoolTag.SYMMETRIC, C.rho * 11) == FrequencySet(
            [(PoolTag.SYMMETRIC, 1, 2)]
        )
        assert pool_prefix(PoolTag.PRIVATE_A, Fraction(9, 10)) == FrequencySet()
        assert pool_prefix(
            PoolTag.SHARED_A, GoldenNumber(7) - GoldenNumber(0, 1)
        ) == FrequencySet([(PoolTag.SHARED_A, 1, 5)])

    def test_band_examples(self):
        assert pool_band(PoolTag.SYMMETRIC, 3, 5) == FrequencySet(
            [(PoolTag.SYMMETRIC, 4, 6)]
        )
        assert not pool_band(PoolTag.SHARED_A, C.beta * 12, C.beta * C.phi * 8)
        assert pool_band(PoolTag.SYMMETRIC, 0, C.rho * 11) == pool_prefix(
            PoolTag.SYMMETRIC, C.rho * 11
        )

    def test_negative_boundaries_clamp(self):
        assert not pool_band(PoolTag.SYMMETRIC, -5, -1)
        assert pool_band(PoolTag.SYMMETRIC, -5, 2) == pool_prefix(
            PoolTag.SYMMETRIC, 2
        )

    @given(
        st.integers(min_value=-30, max_value=60),
        st.integers(min_value=-30, max_value=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_prefix(self, x, y):
        lo, hi = sorted((x, y))
        assert issubset(pool_prefix(PoolTag.SYMMETRIC, lo),
                        pool_prefix(PoolTag.SYMMETRIC, hi))

    def test_prefix_band_consistency(self):
        rng = random.Random(9)
        for _ in range(500):
            lo = rng.randint(-10, 50)
            hi = rng.randint(-10, 50)
            assert pool_band(PoolTag.SHARED_B, lo, hi) == pool_prefix(
                PoolTag.SHARED_B, hi
            ) - pool_prefix(PoolTag.SHARED_B, lo)
