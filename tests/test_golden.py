import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqalloc.golden import (
    DigitLimitError,
    GoldenNumber,
    constants,
    fits_digit_limit,
    floor_linear,
    parse_exact,
)

from oracles import floor_linear_corrected, parse_exact_reference, sign_reference

C = constants()


def bisection_floor(x: GoldenNumber) -> int:
    """Independent floor oracle: narrow a rational bracket of sqrt(5) until
    both endpoint evaluations land in the same integer gap."""
    if x.b == 0:
        return math.floor(x.a)
    lo, hi = Fraction(2), Fraction(3)
    while True:
        ends = sorted((x.a + x.b * lo, x.a + x.b * hi))
        flo, fhi = math.floor(ends[0]), math.floor(ends[1])
        if flo == fhi:
            return flo
        mid = (lo + hi) / 2
        if mid * mid < 5:
            lo = mid
        else:
            hi = mid


def dyadic_bisection_floor(x: GoldenNumber) -> int:
    """bisection_floor on integers: the bracket of sqrt(5) is lo/2^n,
    hi/2^n, and each endpoint's floor is a floor division of the integer
    numerator of a + b*c/2^n over its denominator."""
    if x.b == 0:
        return math.floor(x.a)
    pa, qa = x.a.numerator, x.a.denominator
    pb, qb = x.b.numerator, x.b.denominator
    lo, hi, n = 2, 3, 0
    while True:
        den = (qa * qb) << n
        base = (pa * qb) << n
        flo = (base + pb * qa * lo) // den
        if flo == (base + pb * qa * hi) // den:
            return flo
        # the midpoint (lo + hi)/2^(n+1) against 5 = 5*4^(n+1)/4^(n+1)
        mid = lo + hi
        lo, hi, n = 2 * lo, 2 * hi, n + 1
        if mid * mid < 5 << (2 * n):
            lo = mid
        else:
            hi = mid


def floor_samples(seed: int, count: int):
    """count values a + b*sqrt5 with a, b of numerators in +-9999 and
    denominators in 1..99, from a seeded generator."""
    rng = random.Random(seed)
    for _ in range(count):
        yield GoldenNumber(
            Fraction(rng.randint(-9999, 9999), rng.randint(1, 99)),
            Fraction(rng.randint(-9999, 9999), rng.randint(1, 99)),
        )


rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=60
)
goldens = st.builds(GoldenNumber, rationals, rationals)
# Pell pairs (p, r), with p^2 - 5r^2 in {+-1, +-4}: p - r*sqrt5 is within
# 4/(p + r*sqrt5) of 0
PELL_PAIRS = [(2, 1), (9, 4), (38, 17), (161, 72), (3, 1), (7, 3)]
# q*(p - r*sqrt5) and its negation, for a random positive rational q
near_zero = st.builds(
    lambda pair, q, sign: GoldenNumber(pair[0], -pair[1]) * (q * sign),
    st.sampled_from(PELL_PAIRS),
    st.fractions(min_value=Fraction(1, 1000), max_value=1000,
                 max_denominator=1000),
    st.sampled_from([1, -1]),
)


class TestConstants:
    def test_values(self):
        assert C.alpha == GoldenNumber(Fraction(7, 11), Fraction(-1, 11))
        assert C.rho == GoldenNumber(Fraction(-3, 11), Fraction(2, 11))
        assert C.r0 == GoldenNumber(Fraction(18, 11), Fraction(-1, 11))

    def test_identities(self):
        assert C.phi * C.phi == C.phi + 1
        assert 1 / C.phi == C.phi - 1
        assert C.rho * C.phi == C.beta
        assert C.alpha == C.beta * 2
        assert C.alpha + 1 == C.r0
        assert C.beta / C.phi == C.rho
        assert C.alpha * 2 + C.beta * 2 + C.rho == C.r0

    def test_sum_rule(self):
        assert C.alpha + C.alpha == GoldenNumber(
            Fraction(14, 11), Fraction(-2, 11)
        )


class TestArithmetic:
    def test_add_componentwise(self):
        assert GoldenNumber(1) + GoldenNumber(0, 1) == GoldenNumber(1, 1)

    def test_identity_elements(self):
        x = GoldenNumber(Fraction(3, 7), Fraction(-2, 5))
        assert x + 0 == x
        assert x * 1 == x

    @given(goldens, goldens, goldens)
    @settings(max_examples=150, deadline=None)
    def test_field_laws(self, x, y, z):
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(goldens)
    @settings(max_examples=80, deadline=None)
    def test_division_inverts(self, x):
        if x.sign() != 0:
            assert (GoldenNumber(1) / x) * x == GoldenNumber(1)


class TestComparison:
    def test_examples(self):
        assert (3 - GoldenNumber(0, 1)).sign() == 1
        assert (C.phi - C.phi).sign() == 0
        assert (C.alpha - Fraction(1, 2)).sign() == -1

    @given(goldens, goldens, goldens)
    @settings(max_examples=150, deadline=None)
    def test_order_translation_invariant(self, x, y, z):
        if x < y:
            assert x + z < y + z

    @given(goldens, goldens)
    @settings(max_examples=150, deadline=None)
    def test_trichotomy(self, x, y):
        assert (x < y) + (x == y) + (y < x) == 1

    @given(st.one_of(goldens, near_zero),
           st.one_of(goldens, near_zero, rationals))
    @settings(max_examples=400, deadline=None)
    def test_order_matches_sign_reference(self, x, y):
        # sign and order come from one floor; the reference decides them by
        # cases on the parts, and a^2 - 5b^2 next to 0
        want = sign_reference(x - y)
        assert x.sign() == sign_reference(x)
        assert (x < y) == (want < 0)
        assert (y < x) == (want > 0)
        assert (x - y).sign() == want

    @given(goldens)
    @settings(max_examples=100, deadline=None)
    def test_sign_matches_float(self, x):
        # float approximates well away from zero; exact sign must agree
        approx = float(x)
        if abs(approx) > 1e-6:
            assert x.sign() == (1 if approx > 0 else -1)


class TestFloor:
    def test_examples(self):
        assert (GoldenNumber(7) - GoldenNumber(0, 1)).floor() == 4
        assert (-GoldenNumber(0, 1)).floor() == -3
        assert GoldenNumber(3).floor() == 3

    def test_floor_linear_matches_class(self):
        rng = random.Random(11)
        for _ in range(2000):
            u = rng.randint(-10**6, 10**6)
            v = rng.randint(-10**5, 10**5)
            w = rng.randint(1, 10**4)
            got = floor_linear(u, v, w)
            want = bisection_floor(
                GoldenNumber(Fraction(u, w), Fraction(v, w))
            )
            assert got == want, (u, v, w)

    def test_floor_linear_matches_corrected_oracle(self):
        # the one-step floor against the seed-and-correct form, whose loops
        # move the seed wherever it is off: random inputs of 4 to 200 bits,
        # with every sign of u and v, and the edges v = 0 (u < 0 and w > 1
        # too) and w = 1
        rng = random.Random(23)
        cases = [(u, v, w) for u in (-7, -1, 0, 1, 7) for v in (-3, -1, 0, 1, 3)
                 for w in (1, 2, 11, 22)]
        for bits in (4, 16, 64, 200):
            for _ in range(2000):
                u = rng.randint(-(1 << bits), 1 << bits)
                v = rng.randint(-(1 << bits), 1 << bits)
                w = rng.randint(1, 1 << bits)
                cases += [(u, v, w), (u, v, 1), (u, 0, w), (-abs(u), 0, w + 1),
                          (-abs(u), -abs(v), w)]
        for u, v, w in cases:
            assert floor_linear(u, v, w) == floor_linear_corrected(u, v, w), (
                u, v, w)

    @given(goldens)
    @settings(max_examples=200, deadline=None)
    def test_floor_definition(self, x):
        n = x.floor()
        assert GoldenNumber(n) <= x < GoldenNumber(n + 1)

    def test_against_bisection_oracle(self):
        for x in floor_samples(7, 20_000):
            assert x.floor() == dyadic_bisection_floor(x), x

    def test_dyadic_bisection_matches_fraction_bisection(self):
        # the dyadic form is the floor oracle of this class and of the
        # acceptance suite; it must agree with the Fraction form on samples
        # drawn as each of them draws
        for x in floor_samples(7, 300):
            assert dyadic_bisection_floor(x) == bisection_floor(x), x
        rng = random.Random(11)
        for _ in range(300):
            x = GoldenNumber(
                Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 1000)),
                Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 1000)),
            )
            assert dyadic_bisection_floor(x) == bisection_floor(x), x
        for x in (GoldenNumber(Fraction(-7, 3)), GoldenNumber(0, -1),
                  GoldenNumber(Fraction(1, 2), Fraction(-1, 2))):
            assert dyadic_bisection_floor(x) == bisection_floor(x), x


# pieces of exact-number text, well formed or not
PARSE_TOKENS = ["0", "1", "7", "11", "2.5", "3/2", "1/0", "/", ".", "*", "+",
                "-", " ", "sqrt5", "R0", "phi", "sqrt", "e", "\n", "9" * 4400]


def parse_outcome(parse, text):
    """parse's value on text, or the message of the ValueError it raises."""
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestParseRender:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("2", GoldenNumber(2)),
            ("3/2", GoldenNumber(Fraction(3, 2))),
            ("1.42", GoldenNumber(Fraction(71, 50))),
            ("R0", C.r0),
            ("phi", C.phi),
            ("sqrt5", GoldenNumber(0, 1)),
            ("10/7-1/100", GoldenNumber(Fraction(993, 700))),
            ("18/11-1/11*sqrt5", C.r0),
            ("-3/11+2/11*sqrt5", C.rho),
        ],
    )
    def test_parse(self, text, value):
        assert parse_exact(text) == value

    @given(goldens)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, x):
        assert parse_exact(str(x)) == x

    @pytest.mark.parametrize("bad", ["", "nope", "1//2", "sqrt7", "+", "1.2.3"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_exact(bad)

    @given(st.one_of(
        st.text("0123456789./+-*sqrt5R0phi ", max_size=16),
        st.lists(st.sampled_from(PARSE_TOKENS), max_size=8).map("".join)))
    @settings(max_examples=1000, deadline=None, derandomize=True)
    def test_agrees_with_reference(self, text):
        # the same value, or a ValueError with the same text
        assert parse_outcome(parse_exact, text) == parse_outcome(
            parse_exact_reference, text)

    @pytest.mark.parametrize("limit", [640, 4300])
    def test_digit_limit_matches_str(self, limit):
        # fits_digit_limit says exactly which integers str() prints, on
        # both sides of its power-of-two shortcut
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            edges = [10**limit - 1, 10**limit, 2 ** (3 * limit),
                     2 ** (3 * limit + 1), 2 ** (4 * limit)]
            for n in [0, 7, *edges, *(-n for n in edges)]:
                try:
                    str(n)
                    printable = True
                except ValueError:
                    printable = False
                assert fits_digit_limit(n) is printable, (limit, n)
            x = GoldenNumber(Fraction(1, 3), 10**limit - 1)
            assert str(x) == f"1/3+{10**limit - 1}*sqrt5"
            for bad in (GoldenNumber(Fraction(10**limit, 7)),
                        GoldenNumber(0, Fraction(1, 10**limit)),
                        x * 2):
                with pytest.raises(DigitLimitError, match=f"limit of {limit} "):
                    str(bad)
        finally:
            sys.set_int_max_str_digits(saved)
