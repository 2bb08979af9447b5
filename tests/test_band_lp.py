"""The band family's LP at the golden phi, solved exactly in Q(sqrt5).

A band system (``systems.band_system``) with rates alpha, kappa, beta and
rho at a fixed phi >= 1 grows its row unions by 2(alpha + kappa) + 2*beta
+ rho per level.  Past its padding, its level-t set for k has the real
width t*W(k/t), where, with x+ = max(x, 0),

    W(s) = alpha + kappa*s
           + beta*[(min(phi*s, 1) - (1 - s))+ + (s - phi*(1 - s))+]
           + rho*(min(phi*s, 1) - phi*(1 - s))+.

The three positive parts are the widths of the own, the cross and the
symmetric pool's band.  W is linear between its kinks, so W(s) >= s holds
on [0, 1] exactly when it holds at the kinks.  The least ratio with that
floor is then an LP in four nonnegative unknowns, whose 5 kink rows and 4
sign rows give C(9, 4) = 126 bases.  Every basis is solved here, and the
optimum is golden's own rates, with a dual certificate.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from freqalloc.frequencies import PoolTag, Side
from freqalloc.golden import GoldenNumber, constants
from freqalloc.systems import golden_system

C = constants()
PHI = C.phi
ZERO, ONE = GoldenNumber(0), GoldenNumber(1)
SQRT5 = GoldenNumber(0, 1)
# golden's (alpha, kappa, beta, rho), and the LP's cost of each
GOLDEN = (C.alpha, ZERO, C.beta, C.rho)
COST = (GoldenNumber(2), GoldenNumber(2), GoldenNumber(2), ONE)
KINKS = (ZERO, 1 - 1 / PHI, GoldenNumber(Fraction(1, 2)), 1 / PHI, ONE)


def pools(k, t=1) -> tuple:
    """t times the own, cross and symmetric band widths of W(k/t) at unit
    rates.  They are homogeneous in (k, t), so pools(s) is W(s)'s."""
    top, rest = min(PHI * k, t), t - k
    far = PHI * rest
    return tuple(max(x, ZERO) for x in (top - rest, k - far, top - far))


def row(s: GoldenNumber) -> tuple[GoldenNumber, ...]:
    """W(s)'s coefficients of (alpha, kappa, beta, rho)."""
    own, cross, sym = pools(s)
    return ONE, s, own + cross, sym


def dot(xs, ys) -> GoldenNumber:
    return sum((x * y for x, y in zip(xs, ys)), ZERO)


# every row a . x >= b of the LP: W(s) >= s at each kink, then x_i >= 0
ROWS = ([(row(s), s) for s in KINKS]
        + [(tuple(ONE if j == i else ZERO for j in range(4)), ZERO)
           for i in range(4)])


def solve(matrix, rhs):
    """The x with matrix . x = rhs, by Gauss-Jordan elimination in
    Q(sqrt5); None when the square matrix is singular."""
    n = len(rhs)
    m = [[*r, b] for r, b in zip(matrix, rhs)]
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        m[c] = [v / m[c][c] for v in m[c]]
        for i in range(n):
            f = m[i][c]
            if i != c and f:
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return tuple(r[n] for r in m)


def test_kink_rows_are_exact():
    # phi's kinks 1/(1+phi) and phi/(1+phi) are 1 - 1/phi and 1/phi
    assert 1 / (1 + PHI) == KINKS[1] and PHI / (1 + PHI) == KINKS[3]
    half = (PHI - 1) / 2
    assert [row(s) for s in KINKS] == [
        (ONE, ZERO, ZERO, ZERO),
        (ONE, 1 - 1 / PHI, ZERO, ZERO),
        (ONE, GoldenNumber(Fraction(1, 2)), half, ZERO),
        (ONE, 1 / PHI, 1 / PHI, 1 / (PHI * PHI)),
        (ONE, ONE, GoldenNumber(2), ONE),
    ]
    # W is linear between consecutive kinks: each row at a midpoint is
    # the mean of the rows at its ends
    for lo, hi in zip(KINKS, KINKS[1:]):
        mid = row((lo + hi) / 2)
        assert list(mid) == [(a + b) / 2 for a, b in zip(row(lo), row(hi))]


def test_golden_slack_at_the_kinks():
    assert [dot(row(s), GOLDEN) - s for s in KINKS] == [
        (7 - SQRT5) / 11, (9 * SQRT5 - 19) / 22, ZERO, ZERO, ZERO]
    assert C.beta == C.alpha / 2 and C.rho == C.beta / PHI


def test_every_basis_finds_golden_alone():
    feasible = {}
    for basis in combinations(range(len(ROWS)), 4):
        x = solve([ROWS[i][0] for i in basis], [ROWS[i][1] for i in basis])
        if x is not None and all(dot(a, x) >= b for a, b in ROWS):
            feasible[basis] = x
    assert len(feasible) == 59
    best = min(dot(COST, x) for x in feasible.values())
    assert best == (18 - SQRT5) / 11 == C.r0
    assert {x for x in feasible.values() if dot(COST, x) == best} == {GOLDEN}


def test_dual_certificate():
    tight = [i for i, (a, b) in enumerate(ROWS) if dot(a, GOLDEN) == b]
    # W(1/2), W(1/phi), W(1) and kappa >= 0
    assert tight == [2, 3, 4, 6]
    # y . A_tight = COST: the transposed system
    y = solve(list(zip(*(ROWS[i][0] for i in tight))), COST)
    assert y == ((7 - SQRT5) / 11, (9 + 5 * SQRT5) / 22,
                 (21 - 3 * SQRT5) / 22, (4 + SQRT5) / 11)
    assert all(v > 0 for v in y)
    # y >= 0 bounds the cost of every feasible point below by y . b, and
    # golden attains it; y > 0 on four independent tight rows leaves no
    # other optimum
    assert dot(y, [ROWS[i][1] for i in tight]) == (18 - SQRT5) / 11


def between(lo: int, x: GoldenNumber, hi: int) -> bool:
    """lo < x < hi for integers lo < hi, read from one floor of x."""
    return lo <= x.floor() < hi and x != lo


def test_widths_match_the_generator():
    # golden at t = 2000: the private band loses less than 1 to its floor
    # of alpha*t, and each pool's band, a difference of two floors clipped
    # at 0, is within 1 of its width in W; so |F| - pad is within (-4, 3)
    # of t*W(k/t)
    sys_, t, pad = golden_system(), 2000, 4
    alpha, _, beta, rho = GOLDEN
    tags = {Side.A: (PoolTag.PRIVATE_A, PoolTag.SHARED_A, PoolTag.SHARED_B,
                     PoolTag.SYMMETRIC),
            Side.B: (PoolTag.PRIVATE_B, PoolTag.SHARED_B, PoolTag.SHARED_A,
                     PoolTag.SYMMETRIC)}
    for k in range(1, t + 1):
        own, cross, sym = pools(k, t)
        # t times W's four terms at s = k/t, the private one padded
        terms = (alpha * t + pad, beta * own, beta * cross, rho * sym)
        width = sum(terms, ZERO)
        for side, pool_tags in tags.items():
            sizes = {pool: hi - lo
                     for pool, lo, hi in sys_.sets(side, t, k).bands}
            assert set(sizes) <= set(pool_tags)
            private = sizes[pool_tags[0]]
            assert between(private, terms[0], private + 1)
            for pool, term in zip(pool_tags, terms):
                size = sizes.get(pool, 0)
                assert between(size - 1, term, size + 1), (side, k, pool)
            total = sum(sizes.values())
            assert between(total - 3, width, total + 4)


def test_scipy_agrees():
    pytest.importorskip("scipy")
    from scipy.optimize import linprog

    a = [[-float(v) for v in r] for r, _ in ROWS[:len(KINKS)]]
    b = [-float(s) for s in KINKS]
    res = linprog([float(c) for c in COST], A_ub=a, b_ub=b,
                  bounds=[(0, None)] * 4, method="highs")
    assert res.status == 0
    assert res.fun == pytest.approx(float(C.r0), abs=1e-9)
    assert list(res.x) == pytest.approx([float(v) for v in GOLDEN], abs=1e-7)
