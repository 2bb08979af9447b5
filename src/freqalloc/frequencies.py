"""Frequency identities, pools and sorted frequency sets.

A frequency is a (pool, index) pair with a 1-based index.  The five built-in
pools (two private, two side-shared, one symmetric) interleave into the
positive integers; frequencies from external systems live in a sixth "plain"
pool that maps to the integers identically.  ``--out`` files print that
encoding, which plain i and the built-in frequency encoded i share.  The key
POOL_COUNT * encoding + pool rank is injective over all six pools and sorts
in canonical order (encoding, then rank); comparisons, records and counts of
frequencies read it, and the allocator decodes it.  Sets are stored as
per-pool runs of consecutive integer indices (the systems floor exact
boundaries into them), so unions over long prefixes stay cheap.  Every set
keeps its bands canonical: sorted by (pool rank, lo), with touching or
overlapping bands of a pool coalesced.  One function sorts and coalesces
bands for the constructor, for ``|`` and for ``union_all``; one walk over
both band tuples gives ``&`` and ``-``; iteration sorts the expanded set once
by key.
"""

from __future__ import annotations

from enum import Enum
from functools import total_ordering
from typing import Iterable, Iterator


class Side(Enum):
    A = "A"
    B = "B"

    # members are singletons, so identity hashing agrees with Enum equality;
    # Enum.__hash__ runs in Python on every generator cache key
    __hash__ = object.__hash__

    @property
    def other(self) -> "Side":
        return Side.B if self is Side.A else Side.A

    def __str__(self) -> str:
        return self.value


SIDES = (Side.A, Side.B)


class PoolTag(Enum):
    PRIVATE_A = ("PA", 0)
    PRIVATE_B = ("PB", 1)
    SHARED_A = ("SA", 2)
    SHARED_B = ("SB", 3)
    SYMMETRIC = ("Q", 4)
    PLAIN = ("F", 5)

    def __init__(self, token: str, rank: int) -> None:
        self.token = token
        self.rank = rank

    def __str__(self) -> str:
        return self.token


# pools, and rows of a band array, one per pool rank
POOL_COUNT = len(PoolTag)


@total_ordering
class Frequency:
    __slots__ = ("pool", "index")

    def __init__(self, pool: PoolTag, index: int) -> None:
        if index < 1:
            raise ValueError(f"frequency index must be >= 1, got {index}")
        self.pool = pool
        self.index = index

    @classmethod
    def _raw(cls, pool: PoolTag, index: int) -> "Frequency":
        # caller guarantees index >= 1; skips the check
        f = object.__new__(cls)
        f.pool = pool
        f.index = index
        return f

    def encode(self) -> int:
        """Injective encoding of built-in frequencies into the positive
        integers.

        The five built-in pools interleave: PA1=1, PB1=2, SA1=3, SB1=4, Q1=5,
        PA2=6, ...  Plain frequencies map to their own index.
        """
        return self._key() // POOL_COUNT

    def _key(self) -> int:
        scale, offset = KEY_BY_RANK[self.pool.rank]
        return scale * self.index + offset

    def __lt__(self, other: "Frequency") -> bool:
        if not isinstance(other, Frequency):
            return NotImplemented
        return self._key() < other._key()

    # (pool, index) is one key, so equality and hash agree with the order
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frequency):
            return NotImplemented
        return self.pool is other.pool and self.index == other.index

    def __hash__(self) -> int:
        return hash((self.pool, self.index))

    def __str__(self) -> str:
        if self.pool is PoolTag.PLAIN:
            return str(self.index)
        return f"{self.pool.token}{self.index}"


# key = scale * index + offset, by pool rank: POOL_COUNT * encoding + rank,
# where built-in pools encode index i as 5(i - 1) + rank + 1 and the plain
# pool as i.  Keys of a pool step by its scale and keep its rank mod
# POOL_COUNT, so no two pools share one.
KEY_BY_RANK = tuple(
    (POOL_COUNT, p.rank) if p is PoolTag.PLAIN
    else (POOL_COUNT * 5, POOL_COUNT * (p.rank - 4) + p.rank)
    for p in PoolTag
)


# A band is (pool, lo, hi) covering indices lo..hi-1 with 1 <= lo < hi.
Band = tuple[PoolTag, int, int]


# the pools in rank order
_POOLS_BY_RANK = tuple(PoolTag)


def _normalize(bands: Iterable[Band]) -> tuple[Band, ...]:
    # plain int triples sort without a key function
    items = sorted((p.rank, lo, hi) for p, lo, hi in bands if hi > lo)
    out: list[Band] = []
    cr, clo, chi = -1, 0, 0
    for r, lo, hi in items:
        if r == cr and lo <= chi:
            if hi > chi:
                chi = hi
        else:
            if cr >= 0:
                out.append((_POOLS_BY_RANK[cr], clo, chi))
            cr, clo, chi = r, lo, hi
    if cr >= 0:
        out.append((_POOLS_BY_RANK[cr], clo, chi))
    return tuple(out)


def _walk(a: tuple[Band, ...], b: tuple[Band, ...],
          covered: bool) -> "FrequencySet":
    """The pieces of each band of a that b covers (``&``), or else leaves
    out (``-``): canonical as they come, as no two bands of a or b touch."""
    out: list[Band] = []
    n = len(b)
    j = 0
    for p, lo, hi in a:
        # b's bands wholly before this one lie before every later one too
        while j < n and (b[j][0].rank < p.rank
                         or b[j][0] is p and b[j][2] <= lo):
            j += 1
        cur, k = lo, j
        while cur < hi and k < n:
            q, blo, bhi = b[k]
            if q is not p or blo >= hi:
                break
            if covered:
                out.append((p, max(blo, cur), min(bhi, hi)))
            elif blo > cur:
                out.append((p, cur, blo))
            cur = bhi
            k += 1
        if not covered and cur < hi:
            out.append((p, cur, hi))
    return FrequencySet._raw(tuple(out))


class FrequencySet:
    """An immutable, duplicate-free set of frequencies in canonical order."""

    __slots__ = ("_bands",)

    def __init__(self, bands: Iterable[Band] = ()) -> None:
        self._bands = _normalize(bands)

    @classmethod
    def _raw(cls, bands: tuple[Band, ...]) -> "FrequencySet":
        # caller guarantees normalized input
        fs = cls.__new__(cls)
        fs._bands = bands
        return fs

    @property
    def bands(self) -> tuple[Band, ...]:
        return self._bands

    def __len__(self) -> int:
        return sum(hi - lo for _, lo, hi in self._bands)

    def __bool__(self) -> bool:
        return bool(self._bands)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FrequencySet):
            return self._bands == other._bands
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._bands)

    def __repr__(self) -> str:
        parts = [
            f"{p.token}[{lo}..{hi - 1}]" if hi - lo > 1 else f"{p.token}{lo}"
            for p, lo, hi in self._bands
        ]
        return "{" + " ".join(parts) + "}"

    def __contains__(self, f: Frequency) -> bool:
        for p, lo, hi in self._bands:
            if p is f.pool and lo <= f.index < hi:
                return True
        return False

    def __iter__(self) -> Iterator[Frequency]:
        """Yield frequencies in canonical (global encoding) order."""
        for _, pool, index in self.iter_encoded():
            yield Frequency(pool, index)

    def iter_encoded(self) -> Iterator[tuple[int, PoolTag, int]]:
        """(encoding, pool, index) triples in canonical order, sorted once by
        key as ``Frequency._key`` orders; no objects."""
        # keys are distinct, so the sort never compares pools
        for key, p, i in sorted(
            (scale * i + offset, p, i)
            for p, lo, hi in self._bands
            for scale, offset in (KEY_BY_RANK[p.rank],)
            for i in range(lo, hi)
        ):
            yield key // POOL_COUNT, p, i

    def __or__(self, other: "FrequencySet") -> "FrequencySet":
        if not isinstance(other, FrequencySet):
            return NotImplemented
        return FrequencySet(self._bands + other._bands)

    def __and__(self, other: "FrequencySet") -> "FrequencySet":
        if not isinstance(other, FrequencySet):
            return NotImplemented
        return _walk(self._bands, other._bands, True)

    def __sub__(self, other: "FrequencySet") -> "FrequencySet":
        if not isinstance(other, FrequencySet):
            return NotImplemented
        return _walk(self._bands, other._bands, False)

    def isdisjoint(self, other: "FrequencySet") -> bool:
        return not (self & other)


def union_all(sets: Iterable[FrequencySet]) -> FrequencySet:
    bands: list[Band] = []
    for s in sets:
        bands.extend(s.bands)
    return FrequencySet(bands)

