"""Frequency identities, pools and sorted frequency sets.

A frequency is a (pool, index) pair with a 1-based index.  The five built-in
pools (two private, two side-shared, one symmetric) interleave into the
positive integers; frequencies from external systems live in a sixth "plain"
pool that maps to the integers identically.  Sets are stored as per-pool
runs of consecutive indices, so unions over long prefixes stay cheap.  Every
set keeps its bands canonical: sorted by (pool rank, lo), with touching or
overlapping bands of a pool coalesced.  Union is one linear merge of two
canonical band tuples, so only the constructor and ``union_all`` sort bands;
iteration sorts the expanded set once by (global encoding, pool rank).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Iterator, Union

from .golden import GoldenNumber

Boundary = Union[GoldenNumber, int, Fraction]


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


def private_pool(side: Side) -> PoolTag:
    return PoolTag.PRIVATE_A if side is Side.A else PoolTag.PRIVATE_B


def shared_pool(side: Side) -> PoolTag:
    return PoolTag.SHARED_A if side is Side.A else PoolTag.SHARED_B


_BUILTIN_COUNT = 5


@total_ordering
@dataclass(frozen=True)
class Frequency:
    pool: PoolTag
    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"frequency index must be >= 1, got {self.index}")

    def encode(self) -> int:
        return encode_global(self)

    def _key(self) -> tuple[int, int]:
        return (encode_global(self), self.pool.rank)

    def __lt__(self, other: "Frequency") -> bool:
        if not isinstance(other, Frequency):
            return NotImplemented
        return self._key() < other._key()

    def __str__(self) -> str:
        if self.pool is PoolTag.PLAIN:
            return str(self.index)
        return f"{self.pool.token}{self.index}"


def encode_global(f: Frequency) -> int:
    """Injective encoding of built-in frequencies into the positive integers.

    The five built-in pools interleave: PA1=1, PB1=2, SA1=3, SB1=4, Q1=5,
    PA2=6, ...  Plain frequencies map to their own index.
    """
    return encode_index(f.pool, f.index)


def encode_index(pool: PoolTag, index: int) -> int:
    """encode_global of Frequency(pool, index), without building the object."""
    if pool is PoolTag.PLAIN:
        return index
    return _BUILTIN_COUNT * (index - 1) + pool.rank + 1


_POOL_BY_RANK = {p.rank: p for p in PoolTag}


def decode_global(n: int, *, plain: bool = False) -> Frequency:
    """Inverse of encode_global.

    The built-in and plain encodings share the integer range, so the caller
    states which universe is expected; decoding a plain value while built-in
    pools are expected is only detectable by the caller's context.
    """
    if n < 1:
        raise ValueError(f"global frequency number must be >= 1, got {n}")
    if plain:
        return Frequency(PoolTag.PLAIN, n)
    rank = (n - 1) % _BUILTIN_COUNT
    index = (n - 1) // _BUILTIN_COUNT + 1
    return Frequency(_POOL_BY_RANK[rank], index)


# A band is (pool, lo, hi) covering indices lo..hi-1 with 1 <= lo < hi.
Band = tuple[PoolTag, int, int]


def _normalize(bands: Iterable[Band]) -> tuple[Band, ...]:
    items = sorted(
        ((p, lo, hi) for (p, lo, hi) in bands if hi > lo),
        key=lambda b: (b[0].rank, b[1], b[2]),
    )
    out: list[Band] = []
    for p, lo, hi in items:
        if out and out[-1][0] is p and lo <= out[-1][2]:
            if hi > out[-1][2]:
                out[-1] = (p, out[-1][1], hi)
        else:
            out.append((p, lo, hi))
    return tuple(out)


class FrequencySet:
    """An immutable, duplicate-free set of frequencies in canonical order."""

    __slots__ = ("_bands",)

    def __init__(self, bands: Iterable[Band] = ()) -> None:
        object.__setattr__(self, "_bands", _normalize(bands))

    @classmethod
    def _raw(cls, bands: tuple[Band, ...]) -> "FrequencySet":
        # caller guarantees normalized input
        fs = cls.__new__(cls)
        object.__setattr__(fs, "_bands", bands)
        return fs

    @classmethod
    def empty(cls) -> "FrequencySet":
        return _EMPTY

    @classmethod
    def from_frequencies(cls, freqs: Iterable[Frequency]) -> "FrequencySet":
        return cls((f.pool, f.index, f.index + 1) for f in freqs)

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
        (encoding, pool rank) as ``Frequency._key`` orders; no objects."""
        for enc, _, p, i in sorted(
            (encode_index(p, i), p.rank, p, i)
            for p, lo, hi in self._bands
            for i in range(lo, hi)
        ):
            yield enc, p, i

    def __or__(self, other: "FrequencySet") -> "FrequencySet":
        if not isinstance(other, FrequencySet):
            return NotImplemented
        a, b = self._bands, other._bands
        if not a:
            return other
        if not b:
            return self
        # one pass over both canonical band tuples in (pool rank, lo) order;
        # (cp, clo, chi) is the band being built, which swallows each next
        # band of its pool that touches or overlaps it, as _normalize does
        out: list[Band] = []
        i = j = 0
        na, nb = len(a), len(b)
        cp, clo, chi = None, 0, 0
        while i < na and j < nb:
            x, y = a[i], b[j]
            px, py = x[0], y[0]
            if px is py:
                if x[1] <= y[1]:
                    p, lo, hi = x
                    i += 1
                else:
                    p, lo, hi = y
                    j += 1
            elif px.rank < py.rank:
                p, lo, hi = x
                i += 1
            else:
                p, lo, hi = y
                j += 1
            if p is cp and lo <= chi:
                if hi > chi:
                    chi = hi
            else:
                if cp is not None:
                    out.append((cp, clo, chi))
                cp, clo, chi = p, lo, hi
        # the rest of one tuple is canonical past the bands the current band
        # swallows whole, and past the one it may coalesce with
        rest = a[i:] if i < na else b[j:]
        m, n = 0, len(rest)
        while m < n and rest[m][0] is cp and rest[m][2] <= chi:
            m += 1
        if m < n and rest[m][0] is cp and rest[m][1] <= chi:
            chi = rest[m][2]
            m += 1
        out.append((cp, clo, chi))
        out.extend(rest[m:])
        return FrequencySet._raw(tuple(out))

    def __and__(self, other: "FrequencySet") -> "FrequencySet":
        if not isinstance(other, FrequencySet):
            return NotImplemented
        out: list[Band] = []
        a, b = self._bands, other._bands
        i = j = 0
        while i < len(a) and j < len(b):
            pa, loa, hia = a[i]
            pb, lob, hib = b[j]
            if pa.rank != pb.rank:
                if pa.rank < pb.rank:
                    i += 1
                else:
                    j += 1
                continue
            lo = max(loa, lob)
            hi = min(hia, hib)
            if lo < hi:
                out.append((pa, lo, hi))
            if hia <= hib:
                i += 1
            else:
                j += 1
        return FrequencySet._raw(tuple(out))

    def __sub__(self, other: "FrequencySet") -> "FrequencySet":
        if not isinstance(other, FrequencySet):
            return NotImplemented
        if not other._bands or not self._bands:
            return self
        out: list[Band] = []
        b = other._bands
        j = 0
        for pa, lo, hi in self._bands:
            while j < len(b) and (
                b[j][0].rank < pa.rank or (b[j][0].rank == pa.rank and b[j][2] <= lo)
            ):
                j += 1
            k = j
            cur = lo
            while k < len(b) and b[k][0].rank == pa.rank and b[k][1] < hi:
                _, blo, bhi = b[k]
                if blo > cur:
                    out.append((pa, cur, min(blo, hi)))
                cur = max(cur, bhi)
                if cur >= hi:
                    break
                k += 1
            if cur < hi:
                out.append((pa, cur, hi))
        return FrequencySet._raw(tuple(out))

    def isdisjoint(self, other: "FrequencySet") -> bool:
        a, b = self._bands, other._bands
        i = j = 0
        while i < len(a) and j < len(b):
            pa, loa, hia = a[i]
            pb, lob, hib = b[j]
            if pa.rank != pb.rank:
                if pa.rank < pb.rank:
                    i += 1
                else:
                    j += 1
                continue
            if max(loa, lob) < min(hia, hib):
                return False
            if hia <= hib:
                i += 1
            else:
                j += 1
        return True


_EMPTY = FrequencySet()


def _floor_boundary(x: Boundary) -> int:
    if isinstance(x, GoldenNumber):
        return x.floor()
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x.numerator // x.denominator
    raise TypeError(f"not a boundary value: {x!r}")


def pool_prefix(pool: PoolTag, x: Boundary) -> FrequencySet:
    """The first floor(x) frequencies of a pool (empty when floor(x) < 1)."""
    n = _floor_boundary(x)
    if n < 1:
        return _EMPTY
    return FrequencySet._raw(((pool, 1, n + 1),))


def pool_band(pool: PoolTag, lo: Boundary, hi: Boundary) -> FrequencySet:
    """pool_prefix(pool, hi) minus pool_prefix(pool, lo)."""
    nlo = max(0, _floor_boundary(lo))
    nhi = max(0, _floor_boundary(hi))
    if nhi <= nlo:
        return _EMPTY
    return FrequencySet._raw(((pool, nlo + 1, nhi + 1),))


def union_all(sets: Iterable[FrequencySet]) -> FrequencySet:
    bands: list[Band] = []
    for s in sets:
        bands.extend(s.bands)
    return FrequencySet(bands)

