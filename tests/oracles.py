"""Plain-Python references that tests compare the package with."""

import math
import random
import re
from fractions import Fraction

from freqalloc.checker import Violation, ViolationKind, _witness_pair
from freqalloc.frequencies import SIDES, FrequencySet, PoolTag, Side, union_all
from freqalloc.golden import PHI, R0, GoldenNumber, parse_exact
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


def sign_reference(x: GoldenNumber) -> int:
    """Exact sign of x as first written: a case analysis on the signs of
    its parts, and on the sign of a^2 - 5b^2 when theirs differ."""
    sa = (x.a > 0) - (x.a < 0)
    sb = (x.b > 0) - (x.b < 0)
    if sb == 0:
        return sa
    if sa == 0:
        return sb
    if sa == sb:
        return sa
    d = x.a * x.a - 5 * x.b * x.b
    return sa * ((d > 0) - (d < 0))


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
    """Fenwick tree for prefix maxima under increasing point updates: the
    string-keyed reference instance's neighbour maxima, kept apart from
    ``UniversalInstance``'s per-index lists."""

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
    plugin asks for the row in one exchange and caches the replies."""
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
                    out += _witness_pair(sys, SIDES[s], t, k, t - s)
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


_TERM_RE = re.compile(
    r"^(?:(?P<coef>\d+(?:\.\d+)?(?:/\d+)?)\*?)?(?P<sym>sqrt5|R0|phi)?$"
)


def parse_exact_reference(text: str) -> GoldenNumber:
    """golden.parse_exact as first written: a hand-indexed scan for the
    signs, and an if/elif chain over the symbols.

    Accepts sums and differences of terms, where a term is an integer, a
    fraction ``p/q``, a decimal, ``sqrt5``, ``phi``, ``R0``, or a rational
    multiple of those such as ``1/11*sqrt5``.  The output of ``str`` on a
    GoldenNumber parses back to the same value.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty exact-number expression")
    total = GoldenNumber()
    pos = 0
    sign = 1
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        pos = 1
    while pos <= len(s):
        nxt = len(s)
        for i in range(pos, len(s)):
            if s[i] in "+-":
                nxt = i
                break
        term = s[pos:nxt]
        m = _TERM_RE.match(term)
        if not m or (m.group("coef") is None and m.group("sym") is None):
            raise ValueError(f"bad exact-number term {term!r} in {text!r}")
        try:
            coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        except ZeroDivisionError:
            raise ValueError(
                f"zero denominator in term {term!r} of {text!r}"
            ) from None
        sym = m.group("sym")
        if sym == "sqrt5":
            value = GoldenNumber(0, coef)
        elif sym == "R0":
            value = R0 * coef
        elif sym == "phi":
            value = PHI * coef
        else:
            value = GoldenNumber(coef)
        total = total + (value if sign > 0 else -value)
        if nxt == len(s):
            break
        sign = -1 if s[nxt] == "-" else 1
        pos = nxt + 1
    return total


def encodings(fs: FrequencySet) -> list[int]:
    """A set as a report's ``witness`` lists it."""
    return [enc for enc, _, _ in fs.iter_encoded()]


def lemma_rows(row, r: GoldenNumber, lam: int) -> list[tuple]:
    """(kind, lhs, lhs text, rhs, rhs text) of each lemma inequality
    lhs >= rhs, from one row of ``lemma_sizes_sets``."""
    t, _, s_t, s_2t_t, s_u_z, z_top, packed, grown, _ = row
    both = s_u_z + s_2t_t
    return [
        ("shared_lower", s_t, f"|S_t| = {s_t}", (2 - r) * t - lam,
         "(2-R)t - lambda"),
        ("shared_split_lower", s_2t_t, f"|S_2t,t| = {s_2t_t}",
         (6 - 4 * r) * t - 2 * lam, "(6-4R)t - 2*lambda"),
        ("shared_packing", packed, f"|S_2t \\ Z_3t,2t| = {packed}",
         GoldenNumber(both), f"|S_t u Z| + |S_2t,t| = {both}"),
        ("carry_lower", z_top, f"|Z_3t,2t| = {z_top}",
         s_u_z - (3 * r - 4) * t - lam, "|S_t u Z| - (3R-4)t - lambda"),
        ("recurrence", grown, f"|S_2t u Z_3t,2t| = {grown}",
         2 * s_u_z + (10 - 7 * r) * t - 3 * lam,
         "2|S_t u Z| + (10-7R)t - 3*lambda"),
    ]


def recheck(doc: dict, sys, samples: int = 12, seed: int = 0) -> None:
    """Re-derive a ``verify`` or ``falsify`` report (its JSON) from
    ``sys.sets`` alone, and raise AssertionError at the first claim that
    does not hold.

    Each violation is re-derived and its ``lhs`` and ``rhs`` re-rendered;
    ``detail`` is not read.  So is each gamma trace entry's ``set_size``.
    A report with no violation has a seeded sample of its claims re-checked
    inside its horizons instead: ``samples`` (side, t, k) for F1 and for
    F2, and ``samples`` levels for competitiveness and the lemma chain."""
    r, lam = parse_exact(doc["claims"]["r"]), doc["claims"]["lambda"]
    trace = doc["gamma_trace"] or {"entries": [], "lambda": lam}
    horizons, violations = doc["horizons"], doc["violations"]
    rng = random.Random(seed)
    comp_ts = lemma_ts = []
    if not violations and "competitiveness" in horizons:
        comp_ts = [rng.randint(1, horizons["competitiveness"])
                   for _ in range(samples)]
    if not violations and horizons.get("lemma_chain", 0) > 1:
        lemma_ts = [2 * rng.randint(1, horizons["lemma_chain"] // 2)
                    for _ in range(samples)]
    direct = ("f1", "f2", "competitiveness")
    top = max([1, *comp_ts, *(2 * t for t in lemma_ts),
               *(e["t"] for e in trace["entries"]),
               *(2 * v["params"]["t"] for v in violations
                 if v["kind"] not in direct)])
    folds = [None, *row_union_folds(sys, top)]
    shared = {t: fa & fb for t, (fa, fb) in enumerate(folds[1:], 1)}

    def set_size(t):
        # |S_t u Z_3t/2,t|, the gamma trace's numerator
        z = sys.sets(Side.A, 3 * t // 2, t) & sys.sets(Side.B, 3 * t // 2, t)
        return len(shared[t] | z)

    for v in violations:
        kind, p = v["kind"], v["params"]
        texts = (v["lhs"], v["rhs"])
        if kind == "f1":
            fs = sys.sets(Side(p["side"]), p["t"], p["k"])
            assert len(fs) < p["k"] and v["witness"] == encodings(fs), v
            assert texts == (f"|F| = {len(fs)}", f"k = {p['k']}"), v
        elif kind == "f2":
            side = Side(p["side"])
            hit = (sys.sets(side, p["t"], p["k"])
                   & sys.sets(side.other, p["t_other"], p["k_other"]))
            assert hit and v["witness"] == encodings(hit), v
            assert p["k"] + p["k_other"] <= max(p["t"], p["t_other"]), v
            assert texts in ((f"|F(t,k) & F'(t',k')| = {len(hit)}", "0"),
                             (f"|overlap| = {len(hit)}", "0")), v
        elif kind == "competitiveness":
            size, bound = len(union_at(sys, p["t"])), r * p["t"] + lam
            assert bound < size, v
            assert texts == (f"|U_t| = {size}", f"r*t + lambda = {bound}"), v
        elif kind == "gamma_cap":
            t, lam_g = p["t"], trace["lambda"]
            size, s_2t = set_size(t), len(shared[2 * t])
            bound = r * (2 * t) + lam_g
            assert bound < max(size, s_2t), v
            assert texts == (f"|S u Z| = {size}, |S_2t| = {s_2t}",
                             f"2R*t + lambda = {bound}"), v
        elif kind == "gamma_step":
            t, lam_g = p["t"], trace["lambda"]
            grown = set_size(2 * t)
            bound = 2 * set_size(t) + (10 - 7 * r) * t - 3 * lam_g
            assert grown < bound, v
            assert texts == (
                f"|S u Z at 2t| = {grown}",
                f"2|S u Z at t| + (10-7R)t - 3*lambda = {bound}"), v
        else:
            row, = lemma_sizes_sets(sys, [p["t"]], shared)
            (lhs, lhs_text, rhs, rhs_text), = (
                x[1:] for x in lemma_rows(row, r, p["lambda"]) if x[0] == kind)
            assert lhs < rhs, v
            assert texts == (lhs_text, f"{rhs_text} = {rhs}"), v
    for e in trace["entries"]:
        assert e["set_size"] == set_size(e["t"]), e
        assert e["gamma"] == str(Fraction(e["set_size"], e["t"])), e
    if violations:
        return
    for _ in range(samples if "f1" in horizons else 0):
        t = rng.randint(1, horizons["f1"])
        side, k = rng.choice(SIDES), rng.randint(1, t)
        assert len(sys.sets(side, t, k)) >= k, ("f1", side, t, k)
    for _ in range(samples if "f2" in horizons else 0):
        t, tp = (rng.randint(1, horizons["f2"]) for _ in "tt")
        side, k = rng.choice(SIDES), rng.randint(1, t)
        if k < max(t, tp):
            kp = rng.randint(1, min(tp, max(t, tp) - k))
            assert sys.sets(side, t, k).isdisjoint(
                sys.sets(side.other, tp, kp)), ("f2", side, t, k, tp, kp)
    for t in comp_ts:
        fa, fb = folds[t]
        assert not r * t + lam < len(fa | fb), ("competitiveness", t)
    for row in lemma_sizes_sets(sys, lemma_ts, shared):
        assert row[1] == 0, ("lemma clash", row)
        for kind, lhs, _, rhs, _ in lemma_rows(row, r, lam):
            assert not lhs < rhs, (kind, row)
