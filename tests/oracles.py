"""Plain-Python references that tests compare the package with."""

import math
from fractions import Fraction

from freqalloc.checker import Violation, ViolationKind, _witness_pair
from freqalloc.frequencies import SIDES, FrequencySet, PoolTag, Side, union_all
from freqalloc.golden import GoldenNumber
from freqalloc.systems import FSystemSpec

PRIVATE = {Side.A: PoolTag.PRIVATE_A, Side.B: PoolTag.PRIVATE_B}
SHARED = {Side.A: PoolTag.SHARED_A, Side.B: PoolTag.SHARED_B}


def _le_sqrt5(d: int, v: int) -> bool:
    """Is d <= v*sqrt(5), for integers d, v?  Exact.

    sqrt(5) is irrational, so d == v*sqrt(5) only when d == v == 0; squaring
    is therefore safe on either side.
    """
    if d <= 0:
        if v >= 0:
            return True
        return d * d >= 5 * v * v
    if v <= 0:
        return False
    return d * d <= 5 * v * v


def floor_linear_corrected(u: int, v: int, w: int) -> int:
    """Floor of (u + v*sqrt(5)) / w for integers u, v and w > 0, as first
    written: seeded from the integer square root and corrected by exact
    comparisons, in loops that stop only at the floor."""
    if v == 0:
        return u // w
    m = math.isqrt(5 * v * v)
    if v > 0:
        n = (u + m) // w
    else:
        n = (u - m - 1) // w
    while not _le_sqrt5(w * n - u, v):
        n -= 1
    while _le_sqrt5(w * (n + 1) - u, v):
        n += 1
    return n


def set_to_pyset(s: FrequencySet) -> set[tuple[int, int]]:
    """Expand to a plain set of (pool rank, index) pairs."""
    return {(p.rank, i) for p, lo, hi in s.bands for i in range(lo, hi)}


def issubset(a: FrequencySet, b: FrequencySet) -> bool:
    return not (a - b)


def from_indices(pool: PoolTag, indices) -> FrequencySet:
    """The set of the given indices of one pool, through the normalizing
    constructor."""
    return FrequencySet((pool, i, i + 1) for i in indices)


def pool_band(pool: PoolTag, lo, hi) -> FrequencySet:
    """Indices floor(lo)+1 .. floor(hi) of a pool, a negative floor read as
    0; lo and hi are ints, Fractions or GoldenNumbers."""
    return FrequencySet(
        [(pool, max(0, math.floor(lo)) + 1, max(0, math.floor(hi)) + 1)]
    )


def pool_prefix(pool: PoolTag, x) -> FrequencySet:
    """The first floor(x) indices of a pool (empty when floor(x) < 1)."""
    return pool_band(pool, 0, x)


def mixed_pool_system():
    """Side A draws SHARED_A indices 1..t and side B PLAIN indices 3..t+2.
    The pools differ, so the system is F2-clean, yet SHARED_A 1 and PLAIN 3
    share the global encoding 3."""

    def gen(side, t, k):
        if side is Side.A:
            return FrequencySet([(PoolTag.SHARED_A, 1, t + 1)])
        return FrequencySet([(PoolTag.PLAIN, 3, t + 3)])

    return FSystemSpec(
        name="mixed-pools",
        claimed_ratio=GoldenNumber(2),
        claimed_lambda=0,
        generator=gen,
    )


def parse_vertex_id(vid: str) -> tuple[Side, int, int]:
    """The (side, t, k) of a universal-graph id "A:t,k"."""
    side, _, rest = vid.partition(":")
    t, k = rest.split(",")
    return Side(side), int(t), int(k)


def measure_ratio(report, lam: int) -> Fraction:
    """Largest (distinct used - lambda) / optimum over a run's phases;
    ValueError on a run with none."""
    return max(Fraction(p.distinct_used - lam, p.opt) for p in report.phases)


class PrefixMax:
    """Fenwick tree for prefix maxima under increasing point updates, as a
    class with a method per walk: the reference of the walks that
    ``UniversalInstance.admit`` inlines."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.tree = [0] * (size + 1)

    def update(self, index: int, value: int) -> None:
        while index <= self.size:
            if self.tree[index] < value:
                self.tree[index] = value
            index += index & (-index)

    def query(self, index: int) -> int:
        best = 0
        index = min(index, self.size)
        while index > 0:
            if self.tree[index] > best:
                best = self.tree[index]
            index -= index & (-index)
        return best


def union_at(sys, t: int) -> FrequencySet:
    """U_t from scratch: every band of every set of level at most t, through
    the normalizing constructor rather than ``|``."""
    return FrequencySet(
        band
        for side in SIDES
        for tau in range(1, t + 1)
        for k in range(1, tau + 1)
        for band in sys.sets(side, tau, k).bands
    )


def normalize_reference(bands):
    """The canonical band tuple as the constructor first built it: sorted
    with a key function on (pool rank, lo, hi), then coalesced per pool."""
    items = sorted(
        ((p, lo, hi) for (p, lo, hi) in bands if hi > lo),
        key=lambda b: (b[0].rank, b[1], b[2]),
    )
    out = []
    for p, lo, hi in items:
        if out and out[-1][0] is p and lo <= out[-1][2]:
            if hi > out[-1][2]:
                out[-1] = (p, out[-1][1], hi)
        else:
            out.append((p, lo, hi))
    return tuple(out)


def check_f1_exhaustive(sys, t_max: int) -> list[Violation]:
    """F1 from every set's own size, by t, then side A before B, then k."""
    out = []
    for t in range(1, t_max + 1):
        for side in SIDES:
            for k in range(1, t + 1):
                fs = sys.sets(side, t, k)
                if len(fs) < k:
                    out.append(
                        Violation(
                            kind=ViolationKind.F1,
                            params={"side": side, "t": t, "k": k},
                            lhs=f"|F| = {len(fs)}",
                            rhs=f"k = {k}",
                            witness=fs,
                        )
                    )
    return out


def check_f2_exhaustive(sys, t_max: int) -> list[Violation]:
    """Unreduced quadruple sweep of F2, reporting every colliding pair from
    side A."""
    out = []
    for t in range(1, t_max + 1):
        for k in range(1, t + 1):
            fa = sys.sets(Side.A, t, k)
            for tp in range(1, t_max + 1):
                for kp in range(1, tp + 1):
                    if k + kp > max(t, tp):
                        continue
                    hit = fa & sys.sets(Side.B, tp, kp)
                    if hit:
                        out.append(
                            Violation(
                                kind=ViolationKind.F2,
                                params={
                                    "side": Side.A,
                                    "t": t,
                                    "k": k,
                                    "t_other": tp,
                                    "k_other": kp,
                                },
                                lhs=f"|F & F'| = {len(hit)}",
                                rhs="0",
                                witness=hit,
                            )
                        )
    return out


def sets_row(sys, side: Side, t: int) -> list[FrequencySet]:
    """The level-t sets of one side for k = 1..t, one ``sets`` call per k,
    after one ``bit_row_fn`` call for the row where the system has one: a
    plugin asks for the row in windows and caches the replies."""
    if sys.bit_row_fn is not None:
        sys.bit_row_fn(side, t, None)
    return [sys.sets(side, t, k) for k in range(1, t + 1)]


def check_f2_sets(sys, t_max: int, limit=None) -> list[Violation]:
    """check_f2 on FrequencySet unions: the reduced sweep that the bit-row
    and band-hull sweeps replace, with the same anchors, witnesses and
    order."""
    out: list[Violation] = []
    # cols[s][k'] accumulates the union over t' of F(SIDES[s], t', k')
    cols = [[FrequencySet.empty()] * (t_max + 1) for _ in SIDES]

    def prefixes(col: list[FrequencySet], t: int) -> list[FrequencySet]:
        acc = FrequencySet.empty()
        pref = [acc]
        for m in range(1, t + 1):
            acc = acc | col[m]
            pref.append(acc)
        return pref

    for t in range(1, t_max + 1):
        rows = [sets_row(sys, s, t) for s in SIDES]
        for m in range(1, t + 1):
            cols[1][m] = cols[1][m] | rows[1][m - 1]
        # the side A row (s = 0) meets side B history including level t
        # itself; the side B row meets strictly earlier side A history,
        # because the level-t pairs were covered from side A: horizon t - s
        for s in range(len(SIDES)):
            pref = prefixes(cols[1 - s], t - 1)
            for k in range(1, t):
                if not rows[s][k - 1].isdisjoint(pref[t - k]):
                    v = _witness_pair(sys, SIDES[s], t, k, t - s)
                    if v is not None:
                        out.append(v)
                        if limit and len(out) >= limit:
                            return out
        for m in range(1, t + 1):
            cols[0][m] = cols[0][m] | rows[0][m - 1]
    return out


def row_union_folds(sys, t_max: int) -> list[tuple[FrequencySet, ...]]:
    """(F_A(t), F_B(t)) for t = 1..t_max, where F_c(t) unions every side-c
    set of level at most t: each row folded with ``union_all`` and the rows
    with ``|``, whether or not the system is nested."""
    out = []
    fa = fb = FrequencySet.empty()
    for t in range(1, t_max + 1):
        fa = fa | union_all(sets_row(sys, Side.A, t))
        fb = fb | union_all(sets_row(sys, Side.B, t))
        out.append((fa, fb))
    return out


def union_sizes_sets(sys, t_max: int) -> list[tuple[int, int]]:
    """(t, |U_t|) for t <= t_max, from the folded unions of both sides."""
    return [(t, len(fa | fb))
            for t, (fa, fb) in enumerate(row_union_folds(sys, t_max), 1)]


def shared_sets_folds(sys, t_max: int) -> dict[int, FrequencySet]:
    """The shared set S_t = F_A(t) & F_B(t) at every level t <= t_max, from
    the folded unions."""
    return {t: fa & fb
            for t, (fa, fb) in enumerate(row_union_folds(sys, t_max), 1)}


def lemma_sizes_sets(sys, evens, shared) -> list[tuple[int, ...]]:
    """Per even t: t, then the sizes of Z_2t,t, S_t, S_2t,t, S_t u Z_3t/2,t,
    Z_3t,2t, S_2t \\ Z_3t,2t, S_2t u Z_3t,2t and S_2t, on sets, with S_tau
    from ``shared`` (say ``shared_sets_folds``) and
    Z_t,k = F(A,t,k) & F(B,t,k)."""
    def overlap(t, k):
        return sys.sets(Side.A, t, k) & sys.sets(Side.B, t, k)

    out = []
    for t in evens:
        s_t, s_2t = shared[t], shared[2 * t]
        used = sys.sets(Side.A, 2 * t, t) | sys.sets(Side.B, 2 * t, t)
        z_top = overlap(3 * t, 2 * t)
        out.append((t, len(overlap(2 * t, t)), len(s_t), len(s_2t & used),
                    len(s_t | overlap(3 * t // 2, t)), len(z_top),
                    len(s_2t - z_top), len(s_2t | z_top), len(s_2t)))
    return out
