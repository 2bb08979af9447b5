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
integer, and rates equal as numbers share one per-system list of floors, read
by index and grown in place to _SCALAR_LIMIT levels (_Floors reads later ones),
so a sweep to level t computes O(t) square-root floors, not several per set.

Nonnegative rates make every band system nested: at k = t each band
starts at its pool's first index, and no band's upper end falls as t or k
grows.  So each side-c set of level at most t lies in F(c, t, t), which is
itself one of the sets, and the union of all side-c sets up to level t is
F(c, t, t).  ``band_system`` states this as ``FSystemSpec.nested``, and
the checker reads union sizes and shared sets from the top sets alone.

A system may also give its sets as band arrays (``row_bands_fn``): per
pool rank, the one index band [lo, hi) that a set holds in that pool, for a
flat block of (t, k) entries that may span many levels.  A band system
gathers every boundary from per-system floor tables, one per distinct rate
among alpha and each pool's x, y and z (for golden alpha, beta, phi*beta
and rho), read at t, k and t - k.  The tables reach as many levels as keep
every rate exact in int32 (at most _VEC_LIMIT, ``_table_reach``): a rational
rate u/w as long as floor(u*n/w) + 1 fits, an irrational one only while its
vector floor stays exact, a bound some 2**30 / (|u| + 3|v| + w).  Later
levels come from the generator.  The tables start at the first
``row_bands`` call, not when the system is built, and the module imports
numpy only inside its vector code: the generator, which reads the scalar
lists, and so the allocator and the replay, run without it.
Callers walk levels 1..t_max in the
blocks of ``level_blocks``: runs of whole levels of at most _ROW_CHUNK
entries in all, or one level that alone holds more.  ``row_sizes`` of any
system with row bands is the sum of their widths, at most _ROW_CHUNK
entries per pass; ``check_f1`` reads the sizes of every system a block at
a time, and ``check_f2`` takes its level rows as slices of the blocks'
arrays.  The checks of any other system read bit rows
(``FSystemSpec.bit_row``): each set as a Python int whose bit i stands for
the i-th distinct frequency key the spec has seen, in first-seen order.
Numbering keys as they come keeps every int as short as the number of
distinct frequencies, however large the keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

from .frequencies import (KEY_BY_RANK, POOL_COUNT, FrequencySet, PoolTag, Side,
                          union_all)
from .golden import (ALPHA, BETA, PHI, RHO, GoldenNumber, RatLike,
                     _extend_floors, _Floors, _triple)
# unused here, but bench/tracer.py patches floor_linear in systems too
from .golden import floor_linear  # noqa: F401

Generator = Callable[[Side, int, int], FrequencySet]
BitRow = Callable[[Side, int, Optional[Sequence[int]]], Sequence[int]]
if TYPE_CHECKING:
    import numpy as np

    RowBands = Callable[[Side, np.ndarray, np.ndarray],
                        tuple[np.ndarray, np.ndarray]]

# the most levels a band system's floor tables hold (4 bytes per level and
# rate); a steeper rate holds fewer, so that every floor stays exact in int32
# (_table_reach)
_VEC_LIMIT = 3 * 10**7
# (t, k) entries (or table entries) per vectorised pass: each pass holds a
# few int64 arrays of POOL_COUNT times this length (a few hundred kB),
# whatever the levels
_ROW_CHUNK = 1 << 12
# the most levels a band system's scalar floor lists hold per rate; later
# levels floor on each read
_SCALAR_LIMIT = 1 << 16


def level_blocks(t_lo: int, t_hi: int) -> Iterator[tuple[int, int]]:
    """Levels t_lo..t_hi in order, cut into blocks (a, b): runs of whole
    levels a..b whose (t, k) entries, 1 <= k <= t, number at most
    _ROW_CHUNK in all, or one level a = b that alone holds more."""
    t = t_lo
    while t <= t_hi:
        # the largest b with t + (t+1) + ... + b <= _ROW_CHUNK, and at least t
        room = _ROW_CHUNK + t * (t - 1) // 2
        b = (math.isqrt(8 * room + 1) - 1) // 2
        b = min(max(b, t), t_hi)
        yield t, b
        t = b + 1


def level_entries(t_lo: int, t_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat int64 arrays ts, ks of every (t, k) with t_lo <= t <= t_hi and
    1 <= k <= t, in (t, k) order."""
    import numpy as np

    levels = np.arange(t_lo, t_hi + 1, dtype=np.int64)
    ts = np.repeat(levels, levels)
    # k is the entry's position in the block, less its level's first one
    first = np.cumsum(levels) - levels
    ks = np.arange(1, len(ts) + 1, dtype=np.int64) - np.repeat(first, levels)
    return ts, ks


def _passes(t_lo: int, t_hi: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """level_entries(t_lo, t_hi) in passes of at most _ROW_CHUNK entries:
    each block of level_blocks whole, a longer level in parts."""
    import numpy as np

    for a, b in level_blocks(t_lo, t_hi):
        if a <= _ROW_CHUNK:
            yield level_entries(a, b)
            continue
        for k_lo in range(1, a + 1, _ROW_CHUNK):
            ks = np.arange(k_lo, min(k_lo + _ROW_CHUNK, a + 1), dtype=np.int64)
            yield np.full(len(ks), a, dtype=np.int64), ks


@dataclass(frozen=True)
class FSystemSpec:
    """An F-system oracle plus its claimed competitive ratio and constant.

    ``generator`` must be deterministic: the same (side, t, k) always yields
    a structurally identical set.  ``bit_row_fn(side, t, ks)`` optionally
    returns the sets F(side, t, k) for k in ks (all of row t when ks is
    None) as bit rows (``bit_row``), numbered by the system itself: a plugin
    caches each reply as its bit row.

    ``nested`` states that every set of side c at level at most t is a
    subset of F(c, t, t), for every c and t.  Then F(c, t, t) is the union
    of all side-c sets up to level t: the checker reads shared sets from the
    two top sets, and, where the system also has row bands, union sizes and
    the lemma chain from their band arrays.  It is a promise the checks do
    not test: ``band_system`` makes it, a plugin never does, and a system
    that is not nested must leave it False.

    ``row_bands_fn(side, ts, ks)`` is for systems whose sets hold at most
    one band per pool.  It takes flat int64 arrays of levels ts and
    k-values ks, 1 <= ks[i] <= ts[i], and returns two new int64 arrays lo,
    hi of shape (POOL_COUNT, len(ts)): entry [p, i] is the half-open index
    band [lo, hi) that F(side, ts[i], ks[i]) holds in the pool of rank p,
    empty when lo >= hi.  It must agree with the generator exactly:
    ``row_sizes`` then reads the arrays alone, and ``check_f2`` reads sets
    only for the entries the arrays flag.  Its callers bound their passes:
    at most _ROW_CHUNK entries each, except that ``check_f2`` takes a level
    longer than that in one pass.  ``band_system`` gathers the arrays from
    its floor tables up to its reach, and from its generator past it.
    """

    name: str
    claimed_ratio: GoldenNumber
    claimed_lambda: int
    generator: Generator
    nested: bool = False
    row_bands_fn: Optional[RowBands] = None
    bit_row_fn: Optional[BitRow] = None
    # the bit of each frequency key that bit_row has numbered, in first-seen
    # order; a copy made by dataclasses.replace starts a fresh one
    _bit_of: dict[int, int] = field(default_factory=dict, init=False,
                                    repr=False, compare=False)

    def sets(self, side: Side, t: int, k: int) -> FrequencySet:
        if t < 1:
            raise ValueError(f"level must be >= 1, got t={t}")
        if not 0 <= k <= t:
            raise ValueError(f"need 0 <= k <= t, got k={k}, t={t}")
        return self.generator(side, t, k)

    def bit_row(
        self, side: Side, t: int, *, ks: Optional[Sequence[int]] = None
    ) -> Sequence[int]:
        """The level-t sets of one side for k in ks (by default 1..t) as bit
        rows: ints with one bit per frequency key.  With ``bit_row_fn`` the
        system numbers the keys itself; otherwise the spec's own map does,
        kept for its life, and a key new to it takes the next free bit.  So
        equal keys share a bit across every sweep of one spec."""
        if self.bit_row_fn is not None:
            return self.bit_row_fn(side, t, ks)
        bit_of = self._bit_of
        out = []
        for k in range(1, t + 1) if ks is None else ks:
            bits = 0
            for pool, lo, hi in self.sets(side, t, k).bands:
                scale, offset = KEY_BY_RANK[pool.rank]
                for key in range(scale * lo + offset, scale * hi + offset,
                                 scale):
                    bits |= 1 << bit_of.setdefault(key, len(bit_of))
            out.append(bits)
        return out

    def row_union(self, side: Side, t: int) -> FrequencySet:
        """Union over 1 <= k <= t of the level-t sets for one side, after one
        ``bit_row_fn`` call for the row where the system has one: a plugin
        asks for the row in one exchange and caches the replies."""
        if self.bit_row_fn is not None:
            self.bit_row_fn(side, t, None)
        return union_all(self.sets(side, t, k) for k in range(1, t + 1))

    def row_sizes(
        self, side: Side, t: int, t_hi: Optional[int] = None
    ) -> Sequence[int]:
        """Cardinalities of F(side, tau, k) for t <= tau <= t_hi (t_hi = t by
        default) and k = 1..tau, in (tau, k) order: the widths of the row
        bands, at most _ROW_CHUNK entries per pass, where the system has
        them, else the popcounts of ``bit_row``, one level after another."""
        if t_hi is None:
            t_hi = t
        if not 1 <= t <= t_hi:
            raise ValueError(f"need 1 <= t <= t_hi, got t={t}, t_hi={t_hi}")
        if self.row_bands_fn is None:
            return [bits.bit_count() for tau in range(t, t_hi + 1)
                    for bits in self.bit_row(side, tau)]
        import numpy as np

        out = np.empty((t_hi - t + 1) * (t_hi + t) // 2, dtype=np.int64)
        i = 0
        for ts, ks in _passes(t, t_hi):
            out[i : i + len(ks)] = _width(*self.row_bands_fn(side, ts, ks))
            i += len(ks)
        return out


def _width(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per entry, the total size of the per-pool bands [lo, hi) of shape
    (POOL_COUNT, n), an empty band (lo >= hi) counting 0."""
    import numpy as np

    # one temporary, clipped in place: on a cold process each fresh array
    # of a full pass costs more in page faults than its arithmetic
    size = hi - lo
    np.maximum(size, 0, out=size)
    return size.sum(axis=0)


def _meet(
    x: tuple[np.ndarray, np.ndarray], y: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The per-pool intersection of two bands given as (lo, hi) arrays."""
    import numpy as np

    return np.maximum(x[0], y[0]), np.minimum(x[1], y[1])


def _floor_linear_vec(u: np.ndarray, v: np.ndarray, w: int) -> np.ndarray:
    """floor((u + v*sqrt5)/w) elementwise on int64 arrays; exact."""
    import numpy as np

    x = 5 * v * v
    m = np.sqrt(x.astype(np.float64)).astype(np.int64)
    # x < 2^60 under band_system's reach: rounding x to float64 moves its
    # root by under half an ulp of the root, so the float root never falls
    # below isqrt(x), an exact float, and may exceed it by one, fixed here
    m -= m * m > x
    # m is now isqrt(5v^2), and floor((u + y)/w) = floor((u + floor(y))/w);
    # v*sqrt5 is 0 or irrational, so its floor is m for v >= 0, else -m - 1
    return np.where(v >= 0, (u + m) // w, (u - m - 1) // w)


def _table_reach(u: int, v: int, w: int) -> int:
    """The most levels n for which the floor table of rate (u + v*sqrt5)/w
    stays exact.  A rational rate (v = 0) with w in int64 floors as u*n // w,
    exact while floor(u*n/w) + 1 fits int32 and u*n fits int64; any other
    keeps every value _floor_linear_vec forms below 2**30, so that its
    squares stay below 2**60."""
    if v or w >= 1 << 63:
        return ((1 << 30) - 1) // (abs(u) + 3 * abs(v) + w)
    if not u:
        return _VEC_LIMIT
    return min(((1 << 31) - 1) * w - 1, (1 << 63) - 1) // u


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
    be nonnegative: then F(c, t, t) starts each band at its pool's first
    index, and no band's upper end falls as t or k grows, so every side-c
    set of level at most t lies in F(c, t, t) and the system is
    ``nested``.
    """
    alpha, beta, rho, phi = map(GoldenNumber.coerce, (alpha, beta, rho, phi))
    if min(alpha, beta, rho, phi, GoldenNumber(kappa)) < 0:
        raise ValueError(f"band system {name!r} needs nonnegative rates")

    # per distinct (u, v, w): its index among the rates of the floor tables
    rates: dict[tuple[int, int, int], int] = {}

    def rate(*rs: GoldenNumber) -> tuple[int, ...]:
        return tuple(rates.setdefault(_triple(r), len(rates)) for r in rs)

    # each bounded pool's band (floor(x*(t-k)), min(floor(y*k), floor(z*t))]
    # as the table indices of its rates x, y and z
    own = rate(beta, phi * beta, beta)
    cross = rate(phi * beta, beta, beta)
    sym = rate(phi * rho, phi * rho, rho)
    sa, sb, q = PoolTag.SHARED_A, PoolTag.SHARED_B, PoolTag.SYMMETRIC
    # per side: its private pool, then each bounded pool in rank order with
    # its rates (module docstring)
    pools = {
        Side.A: (PoolTag.PRIVATE_A, ((sa, *own), (sb, *cross), (q, *sym))),
        Side.B: (PoolTag.PRIVATE_B, ((sa, *cross), (sb, *own), (q, *sym))),
    }
    (i_alpha,) = rate(alpha)
    # the levels the floor tables serve; row_bands reads any later level
    # from gen
    reach = min(_VEC_LIMIT, *(_table_reach(*key) for key in rates))

    # scalars[i][n] = floor(rate_i * n) for each n below their common length,
    # grown in place at least twofold up to _SCALAR_LIMIT entries; gen floors
    # later levels on each read.  Each layout is pools with rate index i read
    # as floors[i], and alpha's floors after the private tag
    scalars: list[list[int]] = [[] for _ in rates]
    by_list, by_read = (
        {side: (tag, floors[i_alpha],
                tuple((pool, *(floors[i] for i in ixs)) for pool, *ixs in rows))
         for side, (tag, rows) in pools.items()}
        for floors in (scalars, [_Floors(*key) for key in rates]))
    held = scalars[i_alpha]

    def floors_at(t: int) -> dict:
        """by_list once the lists hold level t, or by_read past the bound."""
        if t >= _SCALAR_LIMIT:
            return by_read
        size = min(max(t + 1, 2 * len(held)), _SCALAR_LIMIT)
        for (u, v, w), table in zip(rates, scalars):
            _extend_floors(table, u, v, w, size)
        return by_list

    @lru_cache(maxsize=1 << 16)
    def gen(side: Side, t: int, k: int) -> FrequencySet:
        n = t - k
        # n and k are at most t, so one check on t covers every lookup
        private_tag, private, rows = (
            by_list if t < len(held) else floors_at(t))[side]
        bands = []
        p = private[t] + pad + kappa * k
        if p >= 1:
            bands.append((private_tag, 1, p + 1))
        for pool, x, y, z in rows:
            lo, hi, top = x[n], y[k], z[t]
            if top < hi:
                hi = top
            if hi > lo:
                bands.append((pool, lo + 1, hi + 1))
        # one band per pool, appended in rank order: already normalized
        return FrequencySet._raw(tuple(bands))

    # tables[i, n] = floor(rate_i * n) + 1, the end of the half-open band
    # [1, floor(rate_i * n) + 1), for table rate i and every n the tables
    # hold, filled _ROW_CHUNK entries at a time and grown at least twofold,
    # so a sweep to level t fills O(t) entries in all; none until the first
    # row_bands call
    tables: Optional[np.ndarray] = None

    def floor_tables(n: int) -> np.ndarray:
        nonlocal tables
        import numpy as np

        have = 0 if tables is None else tables.shape[1]
        if have <= n:
            size = min(max(n + 1, 2 * have), reach + 1)
            grown = np.empty((len(rates), size), dtype=np.int32)
            if have:
                grown[:, :have] = tables
            for lo in range(have, size, _ROW_CHUNK):
                hi = min(lo + _ROW_CHUNK, size)
                m = np.arange(lo, hi, dtype=np.int64)
                for new, (u, v, w) in zip(grown, rates):
                    new[lo:hi] = _floor_linear_vec(u * m, v * m, w) + 1
            tables = grown
        return tables

    def row_bands(
        side: Side, ts: np.ndarray, ks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """gen's bands of F(side, ts[i], ks[i]), as per-pool arrays: every
        boundary gathered from the floor tables at t, k and t - k up to
        level reach, and from gen past it."""
        import numpy as np

        n = len(ts)
        lo, hi = np.zeros((2, POOL_COUNT, n), dtype=np.int64)
        if not n:
            return lo, hi
        t_top = int(ts.max())
        if t_top > reach:
            near = ts <= reach
            lo[:, near], hi[:, near] = row_bands(side, ts[near], ks[near])
            for i in np.flatnonzero(~near).tolist():
                for pool, a, b in gen(side, int(ts[i]), int(ks[i])).bands:
                    lo[pool.rank, i], hi[pool.rank, i] = a, b
            return lo, hi
        tabs = floor_tables(t_top)
        at_t, at_k, at_tk = (np.take(tabs, m, axis=1)
                             for m in (ts, ks, ts - ks))
        private_tag, rows = pools[side]
        # gen's band (a, b] is [a + 1, b + 1) here; the pad and kappa*k add
        # to the int64 row, not to the int32 tables
        p = private_tag.rank
        lo[p] = 1
        hi[p] = at_t[i_alpha]
        hi[p] += pad
        if kappa:
            hi[p] += kappa * ks
        for pool, i_x, i_y, i_z in rows:
            lo[pool.rank] = at_tk[i_x]
            np.minimum(at_k[i_y], at_t[i_z], out=hi[pool.rank])
        return lo, hi

    return FSystemSpec(
        name=name,
        claimed_ratio=2 * (alpha + kappa) + 2 * beta + rho,
        claimed_lambda=2 * pad,
        generator=gen,
        nested=True,
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
