"""Frequency-set families ("F-systems") and the three built-in constructions.

An F-system assigns to each (side, t, k) with 0 <= k <= t a finite frequency
set.  The two defining properties checked elsewhere are a size floor
(|F(c,t,k)| >= k) and cross-side disjointness whenever k + k' <= max(t, t');
a family is r-competitive when the union of all sets up to level t never
exceeds r*t + lambda frequencies.

Each built-in generator is an ``lru_cache`` owned by the system that built
it.  The golden system also memoises, per system, the exact floors its band
boundaries are made of: each is the floor of a linear function of a single
integer, so a sweep to level t computes O(t) square-root floors rather than
six per set.

A system may also give its level rows as band arrays (``row_bands``): per
pool rank, the one index band [lo, hi) that each set of the row holds in that
pool.  The golden system builds them from two per-system floor tables,
beta(n) and phi*beta(n) for every n up to the largest level asked for, and
its ``row_sizes`` is the sum of their widths.  ``check_f2`` sweeps such rows
as arrays; every other system keeps the generator path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .frequencies import (
    FrequencySet,
    PoolTag,
    Side,
    pool_prefix,
    private_pool,
    shared_pool,
    union_all,
)
from .golden import GoldenNumber, floor_linear

Generator = Callable[[Side, int, int], FrequencySet]
RowUnion = Callable[[Side, int], FrequencySet]
RowSizes = Callable[[Side, int], Sequence[int]]
RowBands = Callable[[Side, int, int, int], tuple[np.ndarray, np.ndarray]]

# rows of a band array, one per pool rank
POOL_COUNT = len(PoolTag)


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
    lo >= hi.  It must agree with the generator exactly, since ``check_f2``
    then decides disjointness on the arrays alone; it is consulted only for
    t <= _VEC_LIMIT.
    """

    name: str
    claimed_ratio: GoldenNumber
    claimed_lambda: int
    generator: Generator
    row_union_fn: Optional[RowUnion] = None
    row_sizes_fn: Optional[RowSizes] = None
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
        """Cardinalities of the level-t sets for k = 1..t."""
        if self.row_sizes_fn is not None:
            return self.row_sizes_fn(side, t)
        return [len(self.sets(side, t, k)) for k in range(1, t + 1)]

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


def trivial_system() -> FSystemSpec:
    """Private pools only: the level-(t,k) set is the first k private
    frequencies of the request's side.  2-competitive with no additive slack.
    """

    @lru_cache(maxsize=1 << 16)
    def gen(side: Side, t: int, k: int) -> FrequencySet:
        return pool_prefix(private_pool(side), k)

    return FSystemSpec(
        name="trivial",
        claimed_ratio=GoldenNumber(2),
        claimed_lambda=0,
        generator=gen,
        # sets grow with k, so the top of the row is the whole row union
        row_union_fn=lambda side, t: gen(side, t, t),
        row_sizes_fn=lambda side, t: range(1, t + 1),
    )


def half_system() -> FSystemSpec:
    """Private prefix of length floor(t/2)+1 plus, for large k, a tail of
    symmetric-shared frequencies with indices in (t-k, floor(t/2)].
    1.5-competitive with additive constant 2.
    """

    @lru_cache(maxsize=1 << 16)
    def gen(side: Side, t: int, k: int) -> FrequencySet:
        bands = [(private_pool(side), 1, t // 2 + 2)]
        lo, hi = max(0, t - k), t // 2
        if hi > lo:
            bands.append((PoolTag.SYMMETRIC, lo + 1, hi + 1))
        # private rank precedes symmetric: already normalized
        return FrequencySet._raw(tuple(bands))

    def sizes(side: Side, t: int) -> list[int]:
        half_t = t // 2
        return [half_t + 1 + max(0, half_t - (t - k)) for k in range(1, t + 1)]

    return FSystemSpec(
        name="half",
        claimed_ratio=GoldenNumber(Fraction(3, 2)),
        claimed_lambda=2,
        generator=gen,
        # the shared band widens as k grows; k = t covers the row
        row_union_fn=lambda side, t: gen(side, t, t),
        row_sizes_fn=sizes,
    )


# Boundaries of the golden construction, as floor((u + v*sqrt5)/22) of
# integer coefficients.  With phi the golden ratio and the growth rates
# alpha = (7-sqrt5)/11, beta = alpha/2, rho = beta/phi, the products
# reduce to: phi*beta = (1+3*sqrt5)/22, phi*rho = beta, rho*phi*k = beta*k,
# and rho*t = (-6t+4t*sqrt5)/22.


def _phi_k_le_t(k: int, t: int) -> bool:
    # phi*k <= t  <=>  k*sqrt5 <= 2t - k; both sides nonnegative for k <= t
    d = 2 * t - k
    return 5 * k * k <= d * d


def _phi_split(t: int) -> int:
    """The largest k with phi*k <= t: floor(t/phi) = floor((t*sqrt5 - t)/2)."""
    return (math.isqrt(5 * t * t) - t) // 2


# float sqrt plus integer correction is exact while 5v^2 fits the mantissa;
# below it every golden floor also fits in int32
_VEC_LIMIT = 3 * 10**7
# k-values (or table entries) per vectorised pass of the golden rows: each
# pass holds a few int64 arrays of POOL_COUNT times this length (a few MB),
# whatever the level
_ROW_CHUNK = 1 << 16


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


def golden_system() -> FSystemSpec:
    """The four-pool construction with golden-ratio band boundaries.

    The level-(t,k) set takes a private prefix of length floor(alpha*t + 4),
    an own-side shared band (beta*(t-k), beta*min(t, phi*k)], a borrowed
    band from the other side's shared pool (phi*beta*(t-k), beta*k], and a
    symmetric band (phi*rho*(t-k), rho*min(t, phi*k)].  Competitive ratio
    (18-sqrt5)/11 with additive constant 8.
    """

    # every boundary is one of four floors of a linear function of a single
    # integer, memoised per system like gen
    @lru_cache(maxsize=1 << 16)
    def beta(n: int) -> int:
        return floor_linear(7 * n, -n, 22)

    @lru_cache(maxsize=1 << 16)
    def phi_beta(n: int) -> int:
        return floor_linear(n, 3 * n, 22)

    @lru_cache(maxsize=1 << 16)
    def alpha_plus_4(t: int) -> int:
        return floor_linear(14 * t + 88, -2 * t, 22)

    @lru_cache(maxsize=1 << 16)
    def rho(t: int) -> int:
        return floor_linear(-6 * t, 4 * t, 22)

    @lru_cache(maxsize=1 << 16)
    def gen(side: Side, t: int, k: int) -> FrequencySet:
        own = shared_pool(side)
        other = shared_pool(side.other)
        tk = t - k
        p_hi = alpha_plus_4(t)
        if _phi_k_le_t(k, t):
            s_own_hi = phi_beta(k)
            q_hi = beta(k)  # rho*phi*k = beta*k
        else:
            s_own_hi = beta(t)
            q_hi = rho(t)
        s_own_lo = beta(tk)
        s_oth_lo = phi_beta(tk)
        s_oth_hi = beta(k)
        q_lo = s_own_lo  # phi*rho*(t-k) = beta*(t-k)

        shared = [
            (own, s_own_lo, s_own_hi),
            (other, s_oth_lo, s_oth_hi),
        ]
        if own.rank > other.rank:
            shared.reverse()
        bands = []
        if p_hi >= 1:
            bands.append((private_pool(side), 1, p_hi + 1))
        for pool, lo, hi in (*shared, (PoolTag.SYMMETRIC, q_lo, q_hi)):
            lo = max(lo, 0)
            if hi > lo:
                bands.append((pool, lo + 1, hi + 1))
        # one band per pool, appended in rank order: already normalized
        return FrequencySet._raw(tuple(bands))

    # tables[0][n] = beta(n) and tables[1][n] = phi_beta(n) for every n the
    # tables hold, filled _ROW_CHUNK entries at a time and grown at least
    # twofold, so a sweep to level t fills O(t) entries in all
    tables = [np.zeros(1, dtype=np.int32), np.zeros(1, dtype=np.int32)]

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
                grown[0][lo:hi] = _floor_linear_vec(7 * m, -m, 22)
                grown[1][lo:hi] = _floor_linear_vec(m, 3 * m, 22)
            tables[:] = grown
        return tables

    def row_bands(
        side: Side, t: int, k_lo: int, k_hi: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """gen's bands for k_lo <= k < k_hi, as per-pool arrays."""
        if t > _VEC_LIMIT:
            raise ValueError(f"golden row bands are exact up to t = {_VEC_LIMIT}")
        b, pb = floor_tables(t)
        n = k_hi - k_lo
        # the first `split` k-values have phi*k <= t
        split = min(max(0, _phi_split(t) - k_lo + 1), n)
        beta_k, phi_beta_k = b[k_lo:k_hi], pb[k_lo:k_hi]
        # t - k falls from t - k_lo as k rises
        beta_tk = b[t - k_hi + 1 : t - k_lo + 1][::-1]
        phi_beta_tk = pb[t - k_hi + 1 : t - k_lo + 1][::-1]
        own = shared_pool(side).rank
        other = shared_pool(side.other).rank
        q = PoolTag.SYMMETRIC.rank
        # floors first, as in gen: each band is the indices in (lo, hi]
        lo = np.zeros((POOL_COUNT, n), dtype=np.int64)
        hi = np.zeros((POOL_COUNT, n), dtype=np.int64)
        hi[private_pool(side).rank] = alpha_plus_4(t)
        lo[own] = beta_tk
        hi[own, :split] = phi_beta_k[:split]
        hi[own, split:] = beta(t)
        lo[other] = phi_beta_tk
        hi[other] = beta_k
        lo[q] = beta_tk  # phi*rho*(t-k) = beta*(t-k)
        hi[q, :split] = beta_k[:split]  # rho*phi*k = beta*k
        hi[q, split:] = rho(t)
        np.maximum(lo, 0, out=lo)
        lo += 1
        hi += 1
        return lo, hi

    def sizes(side: Side, t: int) -> np.ndarray:
        if t > _VEC_LIMIT:
            return np.array(
                [len(gen(side, t, k)) for k in range(1, t + 1)], dtype=object
            )
        out = np.empty(t, dtype=np.int64)
        for k_lo in range(1, t + 1, _ROW_CHUNK):
            k_hi = min(k_lo + _ROW_CHUNK, t + 1)
            lo, hi = row_bands(side, t, k_lo, k_hi)
            hi -= lo
            out[k_lo - 1 : k_hi - 1] = np.maximum(hi, 0, out=hi).sum(axis=0)
        return out

    return FSystemSpec(
        name="golden",
        claimed_ratio=GoldenNumber(Fraction(18, 11), Fraction(-1, 11)),
        claimed_lambda=8,
        generator=gen,
        # every band's lower end falls and upper end rises with k, so the
        # level sets are nested and k = t covers the row
        row_union_fn=lambda side, t: gen(side, t, t),
        row_sizes_fn=sizes,
        row_bands_fn=row_bands,
    )


BUILTIN_SYSTEMS = {
    "trivial": trivial_system,
    "half": half_system,
    "golden": golden_system,
}
