"""Property checking for F-systems: size floors, cross-side disjointness,
competitiveness, shared-frequency statistics, and the doubling-recurrence
falsifier for claimed ratios below 10/7.

Every reported violation carries the parameters and both sides of the
failed inequality, so re-evaluating the named inequality on the named
parameters reproduces the failure.

The two sweeps over (t, k) work on arrays where they can.  ``check_f1``
reads every system in the blocks of ``systems.level_blocks``, many levels
per pass: it compares the sizes of each block with its k-values and visits
only the short sets.  On a system with row bands ``check_f2`` walks the
same blocks, many levels per numpy pass.  It keeps each column union and
each prefix union as its per-pool hull, one (lo, hi) band per pool from its
lowest to its highest index, takes each level's rows as slices of its
block, and tests all k of both sides of a level in one expression.  A row
that misses the hull misses the union, so no hit is lost; a row that meets
it is only a candidate, which the witness rescan confirms or drops.

Every other system (every plugin) is swept on bit rows
(``FSystemSpec.bit_row``): Python ints with one bit per distinct frequency
key, numbered in first-seen order, one numbering per system (``bit_row``
tells by whom).  ``check_f2`` keeps each column union and each prefix union
as one int, so a level costs one OR per set and one AND per (row, prefix),
and a hit is exact.  ``union_sizes`` ORs the rows of every system but a
nested one with row bands and counts bits, and ``check_f1`` reads a
plugin's sizes as popcounts.  Both F2 sweeps report the same violations in
the same order, each with its witness from ``_witness_pair`` on the sets.
Every sweep yields its violations as it finds them, and a check with a
``limit`` stops its sweep at the limit-th.

A nested system (``FSystemSpec.nested``) needs no sweep for its unions:
the union of all side-c sets up to level t is F(c, t, t).  So U_t is
F(A, t, t) | F(B, t, t) and the shared set S_t is F(A, t, t) & F(B, t, t),
read at the wanted levels only.  With row bands, every set the lemma chain
and ``union_sizes`` read, and every intersection of two of them, is one
band per pool, so their sizes come from the band arrays by inclusion and
exclusion, at most _ROW_CHUNK entries per call; a FrequencySet is built only
for a reported witness.  Every other lemma chain, and every gamma trace, read
``_chain_sizes``: a nested system's top sets, any other's bit rows.

Every ratio inequality (competitiveness, ``min_lambda``, the lemma chain and
the gamma trace) compares an integer with base - r*n for integers base and
n, where r is in Q(sqrt5).  Since x >= base - r*n holds exactly when
base - x <= floor(r*n) for an integer x, each is decided on integers: r is
turned into its triple (u, v, w) once per call, and floor(r*n) is read as
``golden._Floors(u, v, w)[n]``.  A GoldenNumber is built only for a value
that is reported, such as a violation's right-hand side or the result of
``min_lambda``.

``run_checks`` and ``falsify`` share one routine for the direct checks
(F1, F2 and competitiveness), in which one ``union_sizes`` sweep yields
both the competitiveness violations and ``min_lambda``.  ``check_f2``
allocates its columns before its first level, so a horizon whose columns
would pass F2_COLUMN_BYTES_CAP is refused through
``golden.ResourceGuardError``: by ``check_f2``, and by that routine before
its first sweep.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import reduce
from itertools import accumulate, islice
from operator import and_, or_
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .frequencies import POOL_COUNT, SIDES, FrequencySet, Side
from .golden import (DigitLimitError, GoldenNumber, ResourceGuardError,
                     _Floors, _triple, doubling_scale, doubling_scale_text,
                     fits_digit_limit)
from .systems import (_ROW_CHUNK, FSystemSpec, _meet, _width, level_blocks,
                      level_entries)

TEN_SEVENTHS = GoldenNumber(Fraction(10, 7))
# the horizons used when none is given (default_horizon): disjointness in
# verify and falsify, and the lemma chain in verify
F2_DEFAULT_CAP = 100
LEMMA_DEFAULT_CAP = 200
# the most bytes check_f2 may allocate before its first level: the columns
# of _check_f2_bands and its two buffers, 576 bytes per level, or the two
# column lists of _check_f2_sets, 16 bytes per level
F2_COLUMN_BYTES_CAP = 1 << 28


def default_horizon(horizon: Optional[int], t_max: int, cap: int) -> int:
    """horizon if given, else min(t_max, cap)."""
    return min(t_max, cap) if horizon is None else horizon


def _guard_f2(sys: FSystemSpec, t_max: int) -> None:
    """Refuse, through ResourceGuardError, a disjointness horizon whose
    up-front columns would pass F2_COLUMN_BYTES_CAP."""
    if sys.row_bands_fn is not None:
        need = 3 * len(SIDES) * 2 * POOL_COUNT * 8 * (t_max + 1)
    else:
        need = len(SIDES) * 8 * t_max
    if need > F2_COLUMN_BYTES_CAP:
        raise ResourceGuardError(
            f"disjointness to level {t_max} needs {need} bytes of columns "
            f"up front, over the guard of {F2_COLUMN_BYTES_CAP}"
        )


class ViolationKind(Enum):
    F1 = "f1"
    F2 = "f2"
    COMPETITIVENESS = "competitiveness"
    # |S_t| >= (2-R)t - lambda
    SHARED_LOWER = "shared_lower"
    # |S_{2t,t}| >= (6-4R)t - 2*lambda
    SHARED_SPLIT_LOWER = "shared_split_lower"
    # |S_2t \ Z_{3t,2t}| >= |S_t u Z_{3t/2,t}| + |S_{2t,t}|
    SHARED_PACKING = "shared_packing"
    # |Z_{3t,2t}| >= |S_t u Z_{3t/2,t}| - (3R-4)t - lambda
    CARRY_LOWER = "carry_lower"
    # |S_2t u Z_{3t,2t}| >= 2|S_t u Z_{3t/2,t}| + (10-7R)t - 3*lambda
    RECURRENCE = "recurrence"
    GAMMA_STEP = "gamma_step"
    GAMMA_CAP = "gamma_cap"


class Violation(NamedTuple):
    kind: ViolationKind
    params: dict
    lhs: str
    rhs: str
    witness: Optional[FrequencySet] = None

    def render(self) -> str:
        ps = ", ".join(f"{k}={v}" for k, v in self.params.items())
        msg = f"{self.kind.value} violated at {ps}: {self.lhs} < {self.rhs}"
        if self.witness is not None and self.witness:
            msg += f"; witness {self.witness!r}"
        return msg

    def to_json(self) -> dict:
        doc = {
            "kind": self.kind.value,
            "params": {k: _jsonable(v) for k, v in self.params.items()},
            "lhs": self.lhs,
            "rhs": self.rhs,
            "detail": self.render(),
        }
        if self.witness is not None:
            doc["witness"] = [enc for enc, _, _ in self.witness.iter_encoded()]
        return doc


def _jsonable(v: object) -> object:
    if isinstance(v, (GoldenNumber, Fraction, Side)):
        return str(v)
    return v


def check_f1(
    sys: FSystemSpec, t_max: int, *, limit: Optional[int] = None
) -> list[Violation]:
    """Size floor: |F(c,t,k)| >= k for both sides and all 1 <= k <= t <= t_max.

    Every system is read in blocks of levels, side A's sizes of a block
    before side B's; violations come by t, then side A before B, then k.
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")

    def sweep() -> Iterator[Violation]:
        for t_lo, t_hi in level_blocks(1, t_max):
            ts, ks = level_entries(t_lo, t_hi)
            hits = []
            for s, side in enumerate(SIDES):
                sizes = np.asarray(sys.row_sizes(side, t_lo, t_hi))
                short = np.flatnonzero(sizes < ks)
                hits += [(t, s, k) for t, k in
                         zip(ts[short].tolist(), ks[short].tolist())]
            for t, s, k in sorted(hits):
                # recover the witness from the generator proper
                fs = sys.sets(SIDES[s], t, k)
                yield Violation(
                    kind=ViolationKind.F1,
                    params={"side": SIDES[s], "t": t, "k": k},
                    lhs=f"|F| = {len(fs)}",
                    rhs=f"k = {k}",
                    witness=fs,
                )

    return list(islice(sweep(), limit or None))


def check_f2(
    sys: FSystemSpec, t_max: int, *, limit: Optional[int] = None
) -> list[Violation]:
    """Cross-side disjointness for every quadruple with k + k' <= max(t, t').

    The sweep fixes the larger level t and tests each level-t set against
    the union of all opposite-side sets F(c', t', k') with t' <= t and
    k' <= t - k; by the symmetry of the condition in the two sides this
    covers every quadruple up to t_max exactly once.  Witnesses are
    recovered by re-scanning the offending range.  A system with row bands
    is swept on the hulls of its band arrays and any other on its bit rows;
    both give the same violations in the same order.  A horizon whose
    columns would pass F2_COLUMN_BYTES_CAP raises ResourceGuardError.
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    _guard_f2(sys, t_max)
    sweep = _check_f2_sets if sys.row_bands_fn is None else _check_f2_bands
    return list(islice(sweep(sys, t_max), limit or None))


def _witness_pair(
    sys: FSystemSpec, side: Side, t: int, k: int, horizon: int
) -> Iterator[Violation]:
    """The violation of the first opposite-side set, by (t', k'), that
    F(side, t, k) meets among t' <= horizon and k' <= t - k; nothing if it
    meets none."""
    mine = sys.sets(side, t, k)
    for tp in range(1, horizon + 1):
        for kp in range(1, min(tp, t - k) + 1):
            hit = mine & sys.sets(side.other, tp, kp)
            if hit:
                yield Violation(
                    kind=ViolationKind.F2,
                    params={
                        "side": side,
                        "t": t,
                        "k": k,
                        "t_other": tp,
                        "k_other": kp,
                    },
                    lhs=f"|F(t,k) & F'(t',k')| = {len(hit)}",
                    rhs="0",
                    witness=hit,
                )
                return


def _check_f2_sets(sys: FSystemSpec, t_max: int) -> Iterator[Violation]:
    """check_f2 on bit rows; any system.  A row meets a prefix union exactly
    when their AND is nonzero, so every flagged row has a witness."""
    # cols[s][m - 1] is the OR over t' of the bit rows of F(SIDES[s], t', m);
    # it and rows are lists by side number, which hashes no Side enum
    cols = [[0] * t_max for _ in SIDES]
    for t in range(1, t_max + 1):
        rows = [sys.bit_row(side, t) for side in SIDES]
        cols[1][:t] = map(or_, cols[1][:t], rows[1])
        # the side A row (s = 0) meets side B history including level t
        # itself; the side B row meets strictly earlier side A history,
        # because the level-t pairs were covered from side A: horizon t - s
        for s in range(len(SIDES)):
            # pre[j - 1]: the OR of the other side's columns 1..j, j < t;
            # row k meets the prefix of columns 1..t-k
            pre = list(accumulate(cols[1 - s][: t - 1], or_))
            for k, hit in enumerate(map(and_, rows[s], reversed(pre)), 1):
                if hit:
                    yield from _witness_pair(sys, SIDES[s], t, k, t - s)
        cols[0][:t] = map(or_, cols[0][:t], rows[0])


# A band [lo, hi) of one pool is the pair (-lo, hi) here.  The hull of two
# bands is then the elementwise maximum of their pairs, and two bands meet
# exactly when the elementwise minimum sums above 0, min(hi, hi') -
# max(lo, lo') > 0.  An empty band is (_EMPTY, _EMPTY): the maximum ignores
# it, and no sum with it exceeds 0 (nor leaves int64).
_EMPTY = -(1 << 62)


def _check_f2_bands(sys: FSystemSpec, t_max: int) -> Iterator[Violation]:
    """_check_f2_sets on per-pool band hulls, both sides at once.  A hull
    covers its union, so every row that meets the union meets the hull;
    _witness_pair drops the rows that meet only the hull."""
    pools = POOL_COUNT
    # cols[s, :, k']: per pool, the pair of the hull of the union over t' of
    # F(SIDES[s], t', k'), -lo in rows 0..pools-1 and hi in the rest
    cols = np.full((len(SIDES), 2 * pools, t_max + 1), _EMPTY)
    # the prefix hulls of one level and their minima with its rows, in
    # buffers reused level after level rather than fresh arrays as long as
    # cols for each level
    pre_buf, m_buf = np.empty_like(cols), np.empty_like(cols)

    def fill(
        pairs: np.ndarray, side: Side, ts: np.ndarray, ks: np.ndarray
    ) -> None:
        # a function, so that one side's band arrays are freed before the
        # other's are built
        lo, hi = sys.row_bands_fn(side, ts, ks)
        np.negative(lo, out=pairs[:pools])
        pairs[pools:] = hi
        np.copyto(pairs.reshape(2, *lo.shape), _EMPTY, where=lo >= hi)

    for a, b in level_blocks(1, t_max):
        ts, ks = level_entries(a, b)
        block = np.empty((len(SIDES), 2 * pools, len(ts)), dtype=np.int64)
        for s, side in enumerate(SIDES):
            fill(block[s], side, ts, ks)
        start = 0
        for t in range(a, b + 1):
            # level t's rows are columns start .. start + t - 1 of the block
            rows = block[:, :, start : start + t]
            start += t
            col = cols[:, :, 1 : t + 1]
            # the side A row meets side B through level t, the side B row
            # side A before level t (horizon t - s, as in _check_f2_sets)
            np.maximum(col[1], rows[1], out=col[1])
            # pre[s, :, j]: the hull of side s's columns 1..j+1
            pre = np.maximum.accumulate(cols[:, :, 1:t], axis=2,
                                        out=pre_buf[:, :, : t - 1])
            # row k, for k = 1..t-1, against the other side's hull of
            # columns 1..t-k
            m = np.minimum(rows[:, :, : t - 1], pre[::-1, :, ::-1],
                           out=m_buf[:, :, : t - 1])
            np.add(m[:, :pools], m[:, pools:], out=m[:, :pools])
            meets = (m[:, :pools] > 0).any(axis=1)
            for i in np.flatnonzero(meets).tolist():
                s, k = divmod(i, t - 1)
                yield from _witness_pair(sys, SIDES[s], t, k + 1, t - s)
            np.maximum(col[0], rows[0], out=col[0])


def union_sizes(sys: FSystemSpec, t_max: int) -> Iterator[tuple[int, int]]:
    """Yield (t, |U_t|) where U_t unions every set of level at most t.

    A nested system with row bands has U_t = F(A, t, t) | F(B, t, t), whose
    size is, per pool, the two top bands' widths less their overlap, read
    for at most _ROW_CHUNK levels per call.  Any other system ORs its bit
    rows and counts bits."""
    if sys.nested and sys.row_bands_fn is not None:
        for a in range(1, t_max + 1, _ROW_CHUNK):
            ts = np.arange(a, min(a + _ROW_CHUNK, t_max + 1), dtype=np.int64)
            top_a, top_b = (sys.row_bands_fn(side, ts, ts) for side in SIDES)
            size = (_width(*top_a) + _width(*top_b)
                    - _width(*_meet(top_a, top_b)))
            yield from zip(ts.tolist(), size.tolist())
        return
    for t, fa, fb in _bit_unions(sys, t_max):
        yield t, (fa | fb).bit_count()


def _bit_unions(
    sys: FSystemSpec, t_max: int
) -> Iterator[tuple[int, int, int]]:
    """(t, F_A(t), F_B(t)) for t = 1..t_max, where F_c(t), the union of
    every side-c set of level at most t, is a bit row."""
    fa = fb = 0
    for t in range(1, t_max + 1):
        fa = reduce(or_, sys.bit_row(Side.A, t), fa)
        fb = reduce(or_, sys.bit_row(Side.B, t), fb)
        yield t, fa, fb


def _union_pass(
    sys: FSystemSpec, r: GoldenNumber, lam: Optional[int], t_max: int,
    best: list,
) -> Iterator[Violation]:
    """One ``union_sizes`` sweep to t_max: yield each competitiveness
    violation |U_t| > r*t + lambda in order (none when lam is None), and
    keep in best the earliest (t, |U_t|) with the largest |U_t| - r*t so
    far; a later level beats it when |U_t| - |U_b| > r*(t - t_b)."""
    if r < 1:
        raise ValueError("competitive ratio must be >= 1")
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    floor_rn = _Floors(*_triple(r))
    for t, size in union_sizes(sys, t_max):
        if not best or size - best[1] > floor_rn[t - best[0]]:
            best[:] = t, size
        if lam is not None and size - lam > floor_rn[t]:
            yield Violation(kind=ViolationKind.COMPETITIVENESS, params={"t": t},
                            lhs=f"|U_t| = {size}",
                            rhs=f"r*t + lambda = {r * t + lam}")


def check_competitiveness(
    sys: FSystemSpec, r: GoldenNumber, lam: int, t_max: int, *,
    limit: Optional[int] = None,
) -> list[Violation]:
    """|U_t| <= r*t + lambda for every t <= t_max, compared exactly."""
    return list(islice(_union_pass(sys, r, lam, t_max, []), limit or None))


def min_lambda(sys: FSystemSpec, r: GoldenNumber, t_max: int) -> GoldenNumber:
    """Smallest additive constant making the system r-competitive up to t_max:
    the maximum of |U_t| - r*t over the horizon (may be negative)."""
    best: list = []
    list(_union_pass(sys, r, None, t_max, best))  # yields nothing
    return GoldenNumber(best[1]) - r * best[0]


class SharedStats(NamedTuple):
    """Shared-frequency statistics at an even level t.

    s_t is the shared set F_A(t) & F_B(t), where F_c(t) unions every side-c
    set of level at most t; s_2t_t the part of the level-2t shared set that
    the (2t, t) sets actually use; z_3t2_t the overlap of the two (3t/2, t)
    sets.
    """

    t: int
    s_t: FrequencySet
    s_2t_t: FrequencySet
    z_3t2_t: FrequencySet


def _shared_sets(
    sys: FSystemSpec, levels: Iterable[int]
) -> dict[int, FrequencySet]:
    """The shared set S_tau at each requested level: the meet of the two
    top sets of a nested system, else from one sweep that accumulates both
    sides' unions up to the highest level."""
    wanted = set(levels)
    if sys.nested:
        return {tau: _overlap(sys, tau, tau) for tau in sorted(wanted)}
    out = {}
    fa = fb = FrequencySet()
    for tau in range(1, max(wanted) + 1):
        fa = fa | sys.row_union(Side.A, tau)
        fb = fb | sys.row_union(Side.B, tau)
        if tau in wanted:
            out[tau] = fa & fb
    return out


def _overlap(sys: FSystemSpec, t: int, k: int) -> FrequencySet:
    """Z_{t,k}: the frequencies the two (t, k) sets have in common."""
    return and_(*_pair_sets(sys, t, k))


def _shared_bits(sys: FSystemSpec, levels: Iterable[int]) -> dict[int, int]:
    """_shared_sets of a system that is not nested, as bit rows."""
    wanted = set(levels)
    return {tau: fa & fb for tau, fa, fb in
            _bit_unions(sys, max(wanted)) if tau in wanted}


def _pair_sets(sys: FSystemSpec, t: int, k: int) -> list[FrequencySet]:
    """The two (t, k) sets."""
    return [sys.sets(side, t, k) for side in SIDES]


def _pair_bits(sys: FSystemSpec, t: int, k: int) -> list[int]:
    """The two (t, k) sets as bit rows, each read alone: a plugin serves
    them from its cache, or asks for these two sets and no more."""
    return [sys.bit_row(side, t, ks=(k,))[0] for side in SIDES]


def _doubling_bound(prev: int, lam: int, t: int) -> tuple[int, int]:
    """(base, n) with base - R*n = 2*prev + (10-7R)t - 3*lambda: the least
    size the doubling recurrence allows at level 2t when the level-t
    measure is prev."""
    return 2 * prev + 10 * t - 3 * lam, 7 * t


def shared_stats(sys: FSystemSpec, t: int) -> SharedStats:
    if t < 2 or t % 2:
        raise ValueError("t must be even and >= 2")
    shared = _shared_sets(sys, (t, 2 * t))
    return SharedStats(t=t, s_t=shared[t],
                       s_2t_t=shared[2 * t] & or_(*_pair_sets(sys, 2 * t, t)),
                       z_3t2_t=_overlap(sys, 3 * t // 2, t))


def _chain(meet, size, s_t, s_2t, a, b, z, z_top) -> tuple:
    """The eight sizes ``_chain_sizes`` yields after t, from S_t, S_2t, the
    two (2t, t) sets a and b, z = Z_3t/2,t and z_top = Z_3t,2t, by
    inclusion and exclusion over meets: ``meet`` and ``size`` may act on
    sets, bit rows or chunks of band arrays."""
    clash, n_s, n_2t, n_top = meet(a, b), size(s_t), size(s_2t), size(z_top)
    n_top_2t = size(meet(s_2t, z_top))
    # |S_2t & (a | b)|: a and b meet in clash
    used = size(meet(s_2t, a)) + size(meet(s_2t, b)) - size(meet(s_2t, clash))
    return (size(clash), n_s, used, n_s + size(z) - size(meet(s_t, z)), n_top,
            n_2t - n_top_2t, n_2t + n_top - n_top_2t, n_2t)


def _chain_sizes(
    sys: FSystemSpec, ts: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """Per even t in ts: t, then the sizes of Z_2t,t, S_t, S_2t,t,
    S_t u Z_3t/2,t, Z_3t,2t, S_2t \\ Z_3t,2t, S_2t u Z_3t,2t and S_2t.  A
    nested system is read on FrequencySets, S_tau from its top sets
    (``_shared_sets``); any other on bit rows (``_shared_bits``), counted
    by popcount."""
    read, pair, size = ((_shared_sets, _pair_sets, len) if sys.nested
                        else (_shared_bits, _pair_bits, int.bit_count))
    shared = read(sys, [*ts, *(2 * t for t in ts)])
    for t in ts:
        yield t, *_chain(and_, size, shared[t], shared[2 * t],
                         *pair(sys, 2 * t, t),
                         and_(*pair(sys, 3 * t // 2, t)),
                         and_(*pair(sys, 3 * t, 2 * t)))


# the (t, k) entries the lemma chain reads at an even level t, as multiples
# of t/2: (t, t), (2t, 2t), (2t, t), (3t/2, t) and (3t, 2t)
_LEMMA_ENTRIES = ((2, 2), (4, 4), (4, 2), (3, 2), (6, 4))


def _lemma_sizes_bands(
    sys: FSystemSpec, evens: range
) -> Iterator[tuple[int, ...]]:
    """_chain_sizes of a nested system with row bands, on the band
    arrays.  S_tau is the meet of the top bands, and every set below, and
    the meet of any of them, is one band per pool, so ``_chain`` runs on
    whole chunks of band arrays, with ``_meet`` and ``_width``.  Each call
    to ``row_bands_fn`` holds at most _ROW_CHUNK entries."""
    step = _ROW_CHUNK // len(_LEMMA_ENTRIES)
    for i in range(0, len(evens), step):
        half = np.asarray(evens[i : i + step], dtype=np.int64) // 2
        n = len(half)
        ts = np.concatenate([a * half for a, _ in _LEMMA_ENTRIES])
        ks = np.concatenate([b * half for _, b in _LEMMA_ENTRIES])
        a_lo, a_hi = sys.row_bands_fn(Side.A, ts, ks)
        b_lo, b_hi = sys.row_bands_fn(Side.B, ts, ks)
        meet_lo, meet_hi = _meet((a_lo, a_hi), (b_lo, b_hi))
        # the two sides' meet at S_t, S_2t, Z_3t/2,t and Z_3t,2t, and both
        # sides' (2t, t) bands
        part = [slice(j * n, (j + 1) * n) for j in range(len(_LEMMA_ENTRIES))]
        s_t, s_2t, _, z, z_top = ((meet_lo[:, p], meet_hi[:, p]) for p in part)
        used = [(lo[:, part[2]], hi[:, part[2]])
                for lo, hi in ((a_lo, a_hi), (b_lo, b_hi))]
        sizes = _chain(_meet, lambda x: _width(*x), s_t, s_2t, *used, z, z_top)
        yield from zip((2 * half).tolist(), *(x.tolist() for x in sizes))


def lemma_chain_check(
    sys: FSystemSpec, r: GoldenNumber, lam: int, t_max: int
) -> list[Violation]:
    """The shared-frequency inequality chain at every even t <= t_max.

    Each inequality is a consequence of the size floor, disjointness and
    r-competitiveness on levels up to 3t, so for a system that genuinely has
    those properties the result is empty; a violation therefore indicates
    that the assumed properties fail somewhere on that horizon.  Generator
    queries reach level 3*t_max.  A nested system with row bands is read on
    its band arrays, any other by ``_chain_sizes``.
    """
    out: list[Violation] = []
    if t_max < 2:
        return out
    floor_rn = _Floors(*_triple(r))
    banded = sys.nested and sys.row_bands_fn is not None
    sizes = (_lemma_sizes_bands if banded else _chain_sizes)(
        sys, range(2, t_max + 1, 2))
    for t, n_clash, s_t, s_2t_t, s_u_z, z_top, packed, grown, _ in sizes:
        if n_clash:
            out.append(
                Violation(
                    kind=ViolationKind.F2,
                    params={"side": Side.A, "t": 2 * t, "k": t,
                            "t_other": 2 * t, "k_other": t},
                    lhs=f"|overlap| = {n_clash}",
                    rhs="0",
                    witness=_overlap(sys, 2 * t, t),
                )
            )
        # each inequality is lhs >= base - R*n, as (kind, lhs, (base, n),
        # left text, right text)
        checks = (
            (
                ViolationKind.SHARED_LOWER,
                s_t,
                (2 * t - lam, t),
                f"|S_t| = {s_t}",
                "(2-R)t - lambda",
            ),
            (
                ViolationKind.SHARED_SPLIT_LOWER,
                s_2t_t,
                (6 * t - 2 * lam, 4 * t),
                f"|S_2t,t| = {s_2t_t}",
                "(6-4R)t - 2*lambda",
            ),
            (
                ViolationKind.SHARED_PACKING,
                packed,
                (s_u_z + s_2t_t, 0),
                f"|S_2t \\ Z_3t,2t| = {packed}",
                f"|S_t u Z| + |S_2t,t| = {s_u_z + s_2t_t}",
            ),
            (
                ViolationKind.CARRY_LOWER,
                z_top,
                (s_u_z + 4 * t - lam, 3 * t),
                f"|Z_3t,2t| = {z_top}",
                "|S_t u Z| - (3R-4)t - lambda",
            ),
            (
                ViolationKind.RECURRENCE,
                grown,
                _doubling_bound(s_u_z, lam, t),
                f"|S_2t u Z_3t,2t| = {grown}",
                "2|S_t u Z| + (10-7R)t - 3*lambda",
            ),
        )
        for kind, lhs, (base, n), lhs_text, rhs_text in checks:
            if base - lhs > floor_rn[n]:
                out.append(
                    Violation(
                        kind=kind,
                        params={"t": t, "lambda": lam},
                        lhs=lhs_text,
                        rhs=f"{rhs_text} = {GoldenNumber(base) - r * n}",
                    )
                )
    return out


class GammaEntry(NamedTuple):
    i: int
    t: int
    numerator_size: int
    gamma: Fraction

    def to_json(self) -> dict:
        return {
            "i": self.i,
            "t": self.t,
            "set_size": self.numerator_size,
            "gamma": str(self.gamma),
        }


class GammaTrace(NamedTuple):
    """Measured values gamma_i = |S_{t_i} u Z_{3t_i/2,t_i}| / t_i at the
    doubling scales t_i = 6*theta*lambda*2^i."""

    theta: int
    lam: int
    entries: list[GammaEntry]
    violations: list[Violation]

    def to_json(self) -> dict:
        return {
            "theta": self.theta,
            "lambda": self.lam,
            "entries": [e.to_json() for e in self.entries],
            "violations": [v.to_json() for v in self.violations],
        }


def gamma_trace(
    sys: FSystemSpec, r: GoldenNumber, lam: int, theta: int, steps: int
) -> GammaTrace:
    """Measure the gamma sequence for i = 0..steps and verify, exactly, the
    per-step growth and cap that r-competitiveness forces on it.

    Step i uses the doubling recurrence at t_i: the level-(2t_i) numerator
    must gain at least (10 - 7R)t_i - 3*lambda over twice the level-t_i one,
    and every numerator is capped by |S_{2t_i}| <= 2R*t_i + lambda.  The
    numerator and |S_2t| are the lemma chain's own, from ``_chain_sizes``:
    a nested system is read on FrequencySets, which reach any level.
    """
    if theta < 1 or lam < 1:
        raise ValueError("theta and lambda must be >= 1")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if steps > theta:
        raise ValueError("trace cannot exceed theta steps")
    trace = GammaTrace(theta=theta, lam=lam, entries=[], violations=[])
    floor_rn = _Floors(*_triple(r))
    scales = [doubling_scale(theta, lam, i) for i in range(steps + 1)]
    sizes: list[int] = []
    # per scale t, size is |S_t u Z_3t/2,t|
    for i, (t, _, _, _, size, *_, s_2t) in enumerate(
            _chain_sizes(sys, scales)):
        sizes.append(size)
        trace.entries.append(
            GammaEntry(i=i, t=t, numerator_size=size, gamma=Fraction(size, t))
        )
        # x > 2R*t + lambda exactly when x - lambda > floor(R*2t)
        if max(size, s_2t) - lam > floor_rn[2 * t]:
            trace.violations.append(
                Violation(
                    kind=ViolationKind.GAMMA_CAP,
                    params={"i": i, "t": t},
                    lhs=f"|S u Z| = {size}, |S_2t| = {s_2t}",
                    rhs=f"2R*t + lambda = {r * (2 * t) + lam}",
                )
            )
    for i, t in enumerate(scales[:-1]):
        base, n = _doubling_bound(sizes[i], lam, t)
        if base - sizes[i + 1] > floor_rn[n]:
            trace.violations.append(
                Violation(
                    kind=ViolationKind.GAMMA_STEP,
                    params={"i": i, "t": t},
                    lhs=f"|S u Z at 2t| = {sizes[i + 1]}",
                    rhs=(
                        "2|S u Z at t| + (10-7R)t - 3*lambda = "
                        f"{GoldenNumber(base) - r * n}"
                    ),
                )
            )
    return trace


class CheckReport(NamedTuple):
    """Verdicts for the defining properties of one system, serializable."""

    system: str
    claimed_r: GoldenNumber
    claimed_lambda: int
    horizons: dict
    violations: list[Violation]
    min_lambda_on_horizon: Optional[GoldenNumber] = None

    def clean(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "system": self.system,
            "claims": {"r": str(self.claimed_r), "lambda": self.claimed_lambda},
            "horizons": self.horizons,
            "violations": [v.to_json() for v in self.violations],
            "violation_count": len(self.violations),
            "min_lambda_on_horizon": (
                str(self.min_lambda_on_horizon)
                if self.min_lambda_on_horizon is not None
                else None
            ),
            # verify traces no gamma; the key matches falsify's output
            "gamma_trace": None,
        }


def _direct_checks(
    sys: FSystemSpec, r: GoldenNumber, lam: int, f1: Optional[int],
    f2: Optional[int], comp: Optional[int], limit: Optional[int] = None,
) -> tuple[list[Violation], dict, list]:
    """F1, F2 and competitiveness against (r, lam) to the horizons f1, f2
    and comp, each skipped when None: the first ``limit`` violations of
    each kind (None keeps all) in report order, the horizons run, and the
    ``_union_pass`` best of the levels read.  An F2 horizon past its guard
    (check_f2) is refused before any sweep."""
    if f2 is not None:
        _guard_f2(sys, f2)
    violations: list[Violation] = []
    best: list = []
    if f1 is not None:
        violations += check_f1(sys, f1, limit=limit)
    if f2 is not None:
        violations += check_f2(sys, f2, limit=limit)
    if comp is not None:
        violations += islice(_union_pass(sys, r, lam, comp, best), limit or None)
    horizons = {name: t for name, t in
                (("f1", f1), ("f2", f2), ("competitiveness", comp))
                if t is not None}
    return violations, horizons, best


def run_checks(
    sys: FSystemSpec,
    *,
    f1_t_max: Optional[int] = None,
    f2_t_max: Optional[int] = None,
    comp_t_max: Optional[int] = None,
    lemma_t_max: Optional[int] = None,
) -> CheckReport:
    """Run the selected property checks against the system's own claims.

    A horizon of None skips that check; competitiveness also records the
    smallest additive constant that would have sufficed on its horizon.  An
    F2 horizon past its guard (check_f2) is refused before any check runs.
    """
    r, lam = sys.claimed_ratio, sys.claimed_lambda
    violations, horizons, best = _direct_checks(sys, r, lam, f1_t_max,
                                                f2_t_max, comp_t_max)
    if lemma_t_max is not None:
        violations += lemma_chain_check(sys, r, lam, lemma_t_max)
        horizons["lemma_chain"] = lemma_t_max
    return CheckReport(
        system=sys.name,
        claimed_r=r,
        claimed_lambda=lam,
        horizons=horizons,
        violations=violations,
        min_lambda_on_horizon=(GoldenNumber(best[1]) - r * best[0]
                               if best else None),
    )


class FalsifyVerdict(NamedTuple):
    system: str
    claimed_r: GoldenNumber
    claimed_lambda: int
    status: str  # "refuted" or "certificate"
    horizons: dict
    violations: list[Violation]
    trace: Optional[GammaTrace]
    certificate: Optional[dict]
    caveats: list[str]

    def to_json(self) -> dict:
        return {
            "system": self.system,
            "claims": {"r": str(self.claimed_r), "lambda": self.claimed_lambda},
            "status": self.status,
            "horizons": self.horizons,
            "violations": [v.to_json() for v in self.violations],
            "gamma_trace": self.trace.to_json() if self.trace else None,
            "certificate": self.certificate,
            "caveats": self.caveats,
        }


def falsify(
    sys: FSystemSpec,
    claimed_r: GoldenNumber,
    claimed_lambda: int,
    t_max: int,
    *,
    f2_t_max: Optional[int] = None,
) -> FalsifyVerdict:
    """Refute a claimed ratio below 10/7, or emit a contradiction certificate.

    Runs the direct checks (size floor and competitiveness to t_max,
    disjointness to f2_t_max); any hit refutes the claim outright.
    Otherwise the gamma sequence is traced as far as the horizon allows
    (t_theta <= t_max / 3): a sub-10/7 ratio forces each step to grow by a
    fixed positive amount while staying capped, so either a measured step
    breaks in-horizon or the guaranteed growth is extrapolated to the index
    where it must exceed the cap, which no actual system can satisfy.
    """
    if claimed_r >= TEN_SEVENTHS:
        raise ValueError(
            f"claimed ratio {claimed_r} is not below 10/7; nothing to falsify"
        )
    if claimed_r < 1:
        raise ValueError("competitive ratio must be >= 1")
    f2_t_max = default_horizon(f2_t_max, t_max, F2_DEFAULT_CAP)
    violations, horizons, _ = _direct_checks(
        sys, claimed_r, claimed_lambda, t_max, f2_t_max, t_max, limit=5)
    caveats: list[str] = []
    trace: Optional[GammaTrace] = None
    certificate: Optional[dict] = None
    if not violations:
        lam_eff = max(1, claimed_lambda)
        if lam_eff != claimed_lambda:
            caveats.append(
                "additive constant 0 was raised to 1 for the trace scales; any "
                "(r, 0)-competitive system is (r, 1)-competitive"
            )
        # smallest theta with claimed_r < 10/7 - 1/theta, i.e. theta > 1/gap
        gap = TEN_SEVENTHS - claimed_r  # > 0
        theta = max(1, (GoldenNumber(1) / gap).floor() + 1)
        # the caveat prints theta and theta + 1; theta fits where theta + 1 does
        if not fits_digit_limit(theta + 1):
            raise DigitLimitError()
        # cap the measured steps so generator queries stay within the horizon
        budget = t_max // 3
        steps = 0
        while steps < theta and doubling_scale(theta, lam_eff, steps + 1) <= budget:
            steps += 1
        feasible = doubling_scale(theta, lam_eff, 0) <= budget
        if feasible:
            trace = gamma_trace(sys, claimed_r, lam_eff, theta, steps)
            violations += trace.violations
        if not violations:
            if steps < theta:
                t_theta = doubling_scale_text(theta, lam_eff, theta)
                caveats.append(
                    f"gamma trace measured {steps + 1 if feasible else 0} of "
                    f"{theta + 1} scales; t_theta = {t_theta} exceeds the horizon "
                    f"budget {budget}"
                )
            caveats.append(
                f"disjointness was verified only to level {f2_t_max}; the "
                "extrapolation assumes the direct properties persist beyond the "
                "horizon"
            )
            certificate = _extrapolate(claimed_r, lam_eff, theta, trace)
    return FalsifyVerdict(
        system=sys.name,
        claimed_r=claimed_r,
        claimed_lambda=claimed_lambda,
        status="refuted" if violations else "certificate",
        horizons=horizons,
        violations=violations,
        trace=trace,
        certificate=certificate,
        caveats=caveats,
    )


def _extrapolate(
    r: GoldenNumber, lam: int, theta: int, trace: Optional[GammaTrace]
) -> dict:
    """Project the guaranteed per-step growth until it must exceed the cap.

    Step i adds at least c - 3*lambda/(2*t_i) to gamma with c = 5 - 7R/2 > 0,
    and gamma_i is capped by 2R + lambda/t_i.  The loss terms over all steps
    from t_start sum to less than 3*lambda/t_start and the cap never exceeds
    2R + lambda/t_start, so n steps certainly break the cap once
    n*c > 2R + 4*lambda/t_start - gamma_start.  The contradiction index is
    computed in closed form; the scale 6*theta*lambda*2^i can be astronomic
    and is reported symbolically when it would not print comfortably.
    """
    if trace is not None and trace.entries:
        start_i = trace.entries[-1].i
        g0 = GoldenNumber(trace.entries[-1].gamma)
    else:
        start_i = 0
        g0 = GoldenNumber(0)  # gamma_0 >= 0 for any system
    t_start = doubling_scale(theta, lam, start_i)
    c = GoldenNumber(5) - r * Fraction(7, 2)  # > 0 since r < 10/7
    need = r * 2 + Fraction(4 * lam, t_start) - g0
    n = max(1, (need / c).floor() + 1)
    i_star = start_i + n
    scale = doubling_scale_text(theta, lam, i_star)
    return {
        "theta": theta,
        "from_index": start_i,
        "steps_needed": n,
        "contradiction_index": i_star,
        "contradiction_scale": scale,
        "statement": (
            "assuming the verified properties persist beyond the horizon, "
            f"gamma must rise from {g0} at index {start_i} past its cap by "
            f"index {i_star} (scale {scale}), which no frequency-set family "
            "can satisfy"
        ),
    }
