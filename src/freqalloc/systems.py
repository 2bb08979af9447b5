"""Frequency-set families ("F-systems") and the band-system family that
builds the three built-in constructions.

An F-system assigns to each (side, t, k) with 0 <= k <= t a finite frequency
set.  The two defining properties checked elsewhere are a size floor
(|F(c,t,k)| >= k) and cross-side disjointness whenever k + k' <= max(t, t');
a family is r-competitive when the union of all sets up to level t never
exceeds r*t + lambda frequencies.

The built-in systems are members of one family, ``band_system``.  With
floor(.) the exact floor and c' the side other than c, its level-(t,k) set
on side c holds the private band of indices 1 .. floor(alpha*t + pad) +
kappa*k and, in each of three bounded pools, the band

    (floor(x*(t-k)), min(floor(y*k), floor(z*t))]

with the pool's rates (x, y, z):

    pool         x          y          z
    shared(c)    beta       phi*beta   beta
    shared(c')   phi*beta   beta       beta
    symmetric    phi*rho    phi*rho    rho

In shared(c') the cap floor(beta*t) changes nothing, since k <= t.

    system    alpha         kappa  pad  beta     rho       phi
    golden    (7-sqrt5)/11  0      4    alpha/2  beta/phi  (1+sqrt5)/2
    half      1/2           0      1    0        1/2       2
    trivial   0             1      0    0        0         1

Floors are monotone, so each min is exactly the construction's split at
phi*k = t: below it the band ends at phi*beta*k (phi*rho*k), above it at
beta*t (rho*t).  Every boundary is the floor of a rate in Q(sqrt5) times one
integer, and rates equal as numbers share one per-system memo, so a sweep to
level t computes O(t) square-root floors rather than several per set.  The
generator and the row bands both read the rates from one per-side table.

A system may also give its level rows as band arrays (``row_bands``): per
pool rank, the one index band [lo, hi) that each set of the row holds in that
pool.  A band system builds them from per-system floor tables, one per
distinct rate x or y (for golden, beta and phi*beta), and ``row_sizes`` of
any system with row bands is the sum of their widths.  ``check_f2`` sweeps
such rows as arrays and any other system on its sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .frequencies import FrequencySet, PoolTag, Side, union_all
from .golden import (ALPHA, BETA, PHI, RHO, GoldenNumber, RatLike,
                     _floor_memo, _triple)
# unused here, but bench/tracer.py patches floor_linear in systems too
from .golden import floor_linear  # noqa: F401

Generator = Callable[[Side, int, int], FrequencySet]
RowUnion = Callable[[Side, int], FrequencySet]
RowBands = Callable[[Side, int, int, int], tuple[np.ndarray, np.ndarray]]

# rows of a band array, one per pool rank
POOL_COUNT = len(PoolTag)

# float sqrt plus integer correction is exact, and every floor fits in int32,
# up to this many times a row-band table rate (see band_system)
_VEC_LIMIT = 3 * 10**7
# k-values (or table entries) per vectorised pass of a row: each pass holds a
# few int64 arrays of POOL_COUNT times this length (a few MB), whatever the
# level
_ROW_CHUNK = 1 << 16


@dataclass(frozen=True)
class FSystemSpec:
    """An F-system oracle plus its claimed competitive ratio and constant.

    ``generator`` must be deterministic: the same (side, t, k) always yields
    a structurally identical set.  ``row_union_fn`` optionally provides the
    union of a whole level, union over k <= t of F(side, t, k); when absent
    it is computed by folding the generator, which any system supports but
    costs t generator calls.

    ``row_bands_fn(side, t, k_lo, k_hi)`` is for systems whose sets hold at
    most one band per pool.  It returns two int64 arrays lo, hi of shape
    (POOL_COUNT, k_hi - k_lo): entry [p, k - k_lo] is the half-open index
    band [lo, hi) that F(side, t, k) holds in the pool of rank p, empty when
    lo >= hi.  It must agree with the generator exactly: ``row_sizes`` then
    reads the arrays alone, and ``check_f2`` reads sets only for the rows
    the arrays flag.  It is consulted only for t <= _VEC_LIMIT.
    """

    name: str
    claimed_ratio: GoldenNumber
    claimed_lambda: int
    generator: Generator
    row_union_fn: Optional[RowUnion] = None
    row_bands_fn: Optional[RowBands] = None

    def sets(self, side: Side, t: int, k: int) -> FrequencySet:
        if t < 1:
            raise ValueError(f"level must be >= 1, got t={t}")
        if not 0 <= k <= t:
            raise ValueError(f"need 0 <= k <= t, got k={k}, t={t}")
        return self.generator(side, t, k)

    def row_union(self, side: Side, t: int) -> FrequencySet:
        """Union over 1 <= k <= t of the level-t sets for one side."""
        if self.row_union_fn is not None:
            return self.row_union_fn(side, t)
        return union_all(self.sets(side, t, k) for k in range(1, t + 1))

    def row_sizes(self, side: Side, t: int) -> Sequence[int]:
        """Cardinalities of the level-t sets for k = 1..t: the widths of the
        row bands, _ROW_CHUNK k-values at a time, where the system has them."""
        if self.row_bands_fn is None or t > _VEC_LIMIT:
            return [len(self.sets(side, t, k)) for k in range(1, t + 1)]
        out = np.empty(t, dtype=np.int64)
        for k_lo in range(1, t + 1, _ROW_CHUNK):
            k_hi = min(k_lo + _ROW_CHUNK, t + 1)
            lo, hi = self.row_bands(side, t, k_lo, k_hi)
            out[k_lo - 1 : k_hi - 1] = np.maximum(hi - lo, 0).sum(axis=0)
        return out

    def row_bands(
        self, side: Side, t: int, k_lo: int = 1, k_hi: Optional[int] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-pool band arrays of F(side, t, k) for k_lo <= k < k_hi (the
        whole row 1..t by default); see the class docstring."""
        if self.row_bands_fn is None:
            raise ValueError(f"system {self.name!r} provides no row bands")
        if k_hi is None:
            k_hi = t + 1
        if t < 1 or not 1 <= k_lo <= k_hi <= t + 1:
            raise ValueError(f"need 1 <= k_lo <= k_hi <= t + 1, got "
                             f"k_lo={k_lo}, k_hi={k_hi}, t={t}")
        return self.row_bands_fn(side, t, k_lo, k_hi)


def _floor_linear_vec(u: np.ndarray, v: np.ndarray, w: int) -> np.ndarray:
    """floor((u + v*sqrt5)/w) elementwise on int64 arrays; exact."""
    x = 5 * v * v
    m = np.sqrt(x.astype(np.float64)).astype(np.int64)
    m -= m * m > x
    m += (m + 1) * (m + 1) <= x
    n = np.where(v >= 0, (u + m) // w, (u - m - 1) // w)
    # the seed is within one of the floor, always from below
    d = w * (n + 1) - u
    up = np.where(
        d <= 0,
        (v >= 0) | (d * d >= x),
        (v > 0) & (d * d <= x),
    )
    return n + up


def band_system(
    name: str,
    *,
    alpha: GoldenNumber | RatLike,
    kappa: int,
    pad: int,
    beta: GoldenNumber | RatLike,
    rho: GoldenNumber | RatLike,
    phi: GoldenNumber | RatLike,
) -> FSystemSpec:
    """The band system with the given exact parameters (module docstring).

    It claims ratio 2*(alpha + kappa) + 2*beta + rho, the growth of its
    row unions for phi >= 1, with additive constant 2*pad.  Every rate must
    be nonnegative: then each band's lower end falls and its upper end rises
    with k, so the level sets are nested and F(c, t, t) is the row union.
    """
    alpha, beta, rho, phi = map(GoldenNumber.coerce, (alpha, beta, rho, phi))
    if min(alpha, beta, rho, phi, GoldenNumber(kappa)) < 0:
        raise ValueError(f"band system {name!r} needs nonnegative rates")

    # one scalar memo and at most one floor table per distinct (u, v, w)
    memos: dict[tuple[int, int, int], Callable[[int], int]] = {}
    table_index: dict[tuple[int, int, int], int] = {}

    def memo(rate: GoldenNumber) -> Callable[[int], int]:
        key = _triple(rate)
        if key not in memos:
            memos[key] = _floor_memo(*key)
        return memos[key]

    def table(rate: GoldenNumber) -> int:
        u, v, w = key = _triple(rate)
        # under this bound every value that _floor_linear_vec forms up to
        # n = _VEC_LIMIT, and each table entry, stays below 2**30 (its
        # squares below 2**60)
        if (abs(u) + 3 * abs(v) + w) * _VEC_LIMIT >= 1 << 30:
            raise ValueError(f"rate {rate} is too large for exact row bands")
        return table_index.setdefault(key, len(table_index))

    def bounded(x: GoldenNumber, y: GoldenNumber, z: GoldenNumber) -> tuple:
        """The band (floor(x*(t-k)), min(floor(y*k), floor(z*t))] as its
        three scalar memos and the table indices of x and y."""
        return memo(x), memo(y), memo(z), table(x), table(y)

    own = bounded(beta, phi * beta, beta)
    cross = bounded(phi * beta, beta, beta)
    sym = bounded(phi * rho, phi * rho, rho)
    sa, sb, q = PoolTag.SHARED_A, PoolTag.SHARED_B, PoolTag.SYMMETRIC
    # per side: its private pool, then each bounded pool in rank order with
    # its rates (module docstring)
    pools = {
        Side.A: (PoolTag.PRIVATE_A, ((sa, *own), (sb, *cross), (q, *sym))),
        Side.B: (PoolTag.PRIVATE_B, ((sa, *cross), (sb, *own), (q, *sym))),
    }
    private = memo(alpha)

    @lru_cache(maxsize=1 << 16)
    def gen(side: Side, t: int, k: int) -> FrequencySet:
        n = t - k
        private_tag, rows = pools[side]
        bands = []
        p = private(t) + pad + kappa * k
        if p >= 1:
            bands.append((private_tag, 1, p + 1))
        for pool, x, y, z, _, _ in rows:
            lo, hi, top = x(n), y(k), z(t)
            if top < hi:
                hi = top
            if hi > lo:
                bands.append((pool, lo + 1, hi + 1))
        # one band per pool, appended in rank order: already normalized
        return FrequencySet._raw(tuple(bands))

    # tables[i][n] = floor(rate_i * n) + 1, the end of the half-open band
    # [1, floor(rate_i * n) + 1), for table rate i and every n the tables
    # hold, filled _ROW_CHUNK entries at a time and grown at least twofold,
    # so a sweep to level t fills O(t) entries in all
    tables = [np.empty(0, dtype=np.int32) for _ in table_index]

    def floor_tables(n: int) -> list[np.ndarray]:
        have = len(tables[0])
        if have <= n:
            size = min(max(n + 1, 2 * have), _VEC_LIMIT + 1)
            grown = [np.empty(size, dtype=np.int32) for _ in tables]
            for new, old in zip(grown, tables):
                new[:have] = old
            for lo in range(have, size, _ROW_CHUNK):
                hi = min(lo + _ROW_CHUNK, size)
                m = np.arange(lo, hi, dtype=np.int64)
                for new, (u, v, w) in zip(grown, table_index):
                    new[lo:hi] = _floor_linear_vec(u * m, v * m, w) + 1
            tables[:] = grown
        return tables

    def row_bands(
        side: Side, t: int, k_lo: int, k_hi: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """gen's bands for k_lo <= k < k_hi, as per-pool arrays."""
        if t > _VEC_LIMIT:
            raise ValueError(f"row bands are exact up to t = {_VEC_LIMIT}")
        tabs = floor_tables(t)
        at_k = [tab[k_lo:k_hi] for tab in tabs]
        # t - k falls from t - k_lo as k rises
        at_tk = [tab[t - k_hi + 1 : t - k_lo + 1][::-1] for tab in tabs]
        private_tag, rows = pools[side]
        # gen's band (a, b] is [a + 1, b + 1) here
        lo = np.zeros((POOL_COUNT, k_hi - k_lo), dtype=np.int64)
        hi = np.zeros_like(lo)
        p = private_tag.rank
        lo[p] = 1
        hi[p] = private(t) + pad + 1
        if kappa:
            hi[p] += kappa * np.arange(k_lo, k_hi)
        for pool, _, _, z, i_x, i_y in rows:
            lo[pool.rank] = at_tk[i_x]
            np.minimum(at_k[i_y], z(t) + 1, out=hi[pool.rank])
        return lo, hi

    return FSystemSpec(
        name=name,
        claimed_ratio=2 * (alpha + kappa) + 2 * beta + rho,
        claimed_lambda=2 * pad,
        generator=gen,
        row_union_fn=lambda side, t: gen(side, t, t),
        row_bands_fn=row_bands,
    )


def trivial_system() -> FSystemSpec:
    """Private pools only: the level-(t,k) set is the first k private
    frequencies of the request's side.  2-competitive with no additive slack.
    """
    return band_system("trivial", alpha=0, kappa=1, pad=0, beta=0, rho=0, phi=1)


def half_system() -> FSystemSpec:
    """Private prefix of length floor(t/2)+1 plus, for large k, a tail of
    symmetric-shared frequencies with indices in (t-k, floor(t/2)].
    1.5-competitive with additive constant 2.
    """
    return band_system("half", alpha=Fraction(1, 2), kappa=0, pad=1,
                       beta=0, rho=Fraction(1, 2), phi=2)


def golden_system() -> FSystemSpec:
    """The four-pool construction with golden-ratio band boundaries: alpha =
    (7-sqrt5)/11, beta = alpha/2, rho = beta/phi with phi the golden ratio,
    and a private padding of 4.  Competitive ratio (18-sqrt5)/11 with
    additive constant 8.
    """
    return band_system("golden", alpha=ALPHA, kappa=0, pad=4,
                       beta=BETA, rho=RHO, phi=PHI)


BUILTIN_SYSTEMS = {
    "trivial": trivial_system,
    "half": half_system,
    "golden": golden_system,
}
