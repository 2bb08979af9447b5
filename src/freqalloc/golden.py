"""Exact arithmetic over numbers of the form a + b*sqrt(5) with rational a, b.

Every boundary of every frequency band in this package is the floor of such
a number.  A one-ulp float error would move a boundary by one frequency, so
comparisons, signs and floors are computed exactly; floating point is never
consulted for a decision.  Every order decision is one integer floor:
``floor_linear`` here, or its vector twin ``systems._floor_linear_vec``; a
sign or a comparison is the floor of a value or of a difference.

A rate r = (u + v*sqrt5)/w enters hot loops as its integer triple
(``_triple``), and r*n is floored in one exact step as ``floor_linear(u*n,
v*n, w)``, read as ``_Floors(u, v, w)[n]`` or listed by ``_extend_floors``.
The band systems, the checker's inequalities and the replay's phase bounds
floor this way, so none builds a GoldenNumber per level.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import total_ordering
from typing import NamedTuple, Union

RatLike = Union[int, Fraction]


def floor_linear(u: int, v: int, w: int) -> int:
    """Floor of (u + v*sqrt(5)) / w for integers u, v and w > 0, in one step.

    For integer u and w > 0, floor((u + y)/w) = floor((u + floor(y))/w), and
    floor(v*sqrt5) is isqrt(5v^2) for v >= 0 (v = 0 included, as isqrt(0)
    is 0) and -isqrt(5v^2) - 1 for v < 0, since v*sqrt5 is then irrational;
    so no comparison corrects the result.
    """
    if w <= 0:
        raise ValueError("denominator must be positive")
    m = math.isqrt(5 * v * v)
    return (u + m) // w if v >= 0 else (u - m - 1) // w


def fits_digit_limit(n: int) -> bool:
    """Whether n prints in decimal within the interpreter's digit limit
    (``sys.get_int_max_str_digits``, 0 for none); 2^(3*limit) < 10^limit
    spares most calls the power of ten."""
    limit, n = sys.get_int_max_str_digits(), abs(n)
    return not limit or n.bit_length() <= 3 * limit or n < 10**limit


class DigitLimitError(Exception):
    """An exact number whose decimal text would pass the digit limit."""

    def __init__(self) -> None:
        super().__init__(
            "exact number too long to print: its decimal text passes the "
            f"limit of {sys.get_int_max_str_digits()} digits"
        )


@total_ordering
class GoldenNumber:
    """An exact value a + b*sqrt(5); the representation (a, b) is unique."""

    __slots__ = ("_a", "_b")

    def __init__(self, a: RatLike = 0, b: RatLike = 0) -> None:
        self._a = Fraction(a)
        self._b = Fraction(b)

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

    @classmethod
    def coerce(cls, value: GoldenNumber | RatLike) -> GoldenNumber:
        if isinstance(value, GoldenNumber):
            return value
        return cls(value)

    def __repr__(self) -> str:
        return f"GoldenNumber({self._a!r}, {self._b!r})"

    def __str__(self) -> str:
        terms = (self._a.numerator, self._a.denominator,
                 self._b.numerator, self._b.denominator)
        if not all(map(fits_digit_limit, terms)):
            raise DigitLimitError()
        if self._b == 0:
            return str(self._a)
        tail = f"{abs(self._b)}*sqrt5"
        sign = "-" if self._b < 0 else "+" if self._a != 0 else ""
        head = str(self._a) if self._a != 0 else ""
        return f"{head}{sign}{tail}"

    def __add__(self, other: GoldenNumber | RatLike) -> GoldenNumber:
        if isinstance(other, GoldenNumber):
            return GoldenNumber(self._a + other._a, self._b + other._b)
        if isinstance(other, (int, Fraction)):
            return GoldenNumber(self._a + other, self._b)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> GoldenNumber:
        return GoldenNumber(-self._a, -self._b)

    def __sub__(self, other: GoldenNumber | RatLike) -> GoldenNumber:
        if isinstance(other, GoldenNumber):
            return GoldenNumber(self._a - other._a, self._b - other._b)
        if isinstance(other, (int, Fraction)):
            return GoldenNumber(self._a - other, self._b)
        return NotImplemented

    def __rsub__(self, other: GoldenNumber | RatLike) -> GoldenNumber:
        return (-self) + other

    def __mul__(self, other: GoldenNumber | RatLike) -> GoldenNumber:
        if isinstance(other, GoldenNumber):
            return GoldenNumber(
                self._a * other._a + 5 * self._b * other._b,
                self._a * other._b + self._b * other._a,
            )
        if isinstance(other, (int, Fraction)):
            return GoldenNumber(self._a * other, self._b * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: GoldenNumber | RatLike) -> GoldenNumber:
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return GoldenNumber(self._a / other, self._b / other)
        if isinstance(other, GoldenNumber):
            norm = other._a * other._a - 5 * other._b * other._b
            if norm == 0:
                # a^2 = 5 b^2 has no nonzero rational solutions
                raise ZeroDivisionError("division by zero")
            return (self * GoldenNumber(other._a, -other._b)) / norm
        return NotImplemented

    def __rtruediv__(self, other: RatLike) -> GoldenNumber:
        return GoldenNumber.coerce(other) / self

    def sign(self) -> int:
        """Exact sign of the real value, -1, 0 or +1: x < 0 exactly when
        floor(x) < 0, and x = 0 only when a = b = 0."""
        return -1 if self.floor() < 0 else int(bool(self))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GoldenNumber):
            return self._a == other._a and self._b == other._b
        if isinstance(other, (int, Fraction)):
            return self._b == 0 and self._a == other
        return NotImplemented

    def __lt__(self, other: GoldenNumber | RatLike) -> bool:
        if isinstance(other, (GoldenNumber, int, Fraction)):
            return (self - other).floor() < 0
        return NotImplemented

    def __hash__(self) -> int:
        if self._b == 0:
            return hash(self._a)
        return hash((self._a, self._b))

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __floor__(self) -> int:
        p, q = self._a.numerator, self._a.denominator
        r, s = self._b.numerator, self._b.denominator
        return floor_linear(p * s, r * q, q * s)

    def floor(self) -> int:
        return self.__floor__()

    def __float__(self) -> float:
        # diagnostics only; never used for a decision
        return float(self._a) + float(self._b) * math.sqrt(5.0)


def cmp(x: GoldenNumber | RatLike, y: GoldenNumber | RatLike) -> int:
    """Exact three-way comparison: -1 if x < y, 0 if equal, +1 if x > y."""
    return (GoldenNumber.coerce(x) - GoldenNumber.coerce(y)).sign()


def _triple(rate: GoldenNumber) -> tuple[int, int, int]:
    """The (u, v, w) in lowest terms with rate = (u + v*sqrt5)/w, w > 0."""
    w = math.lcm(rate.a.denominator, rate.b.denominator)
    return int(rate.a * w), int(rate.b * w), w


class _Floors:
    """floor((u + v*sqrt5)*n/w) read as floors[n], like a list of every n;
    each read is one floor_linear call."""

    def __init__(self, u: int, v: int, w: int) -> None:
        self.u, self.v, self.w = u, v, w

    def __getitem__(self, n: int) -> int:
        return floor_linear(self.u * n, self.v * n, self.w)


def _extend_floors(table: list[int], u: int, v: int, w: int, size: int) -> None:
    """Extend table, whose entry n is floor((u + v*sqrt5)*n/w), to size
    entries, in place."""
    table.extend([floor_linear(u * n, v * n, w) for n in range(len(table), size)])


class Constants(NamedTuple):
    phi: GoldenNumber
    alpha: GoldenNumber
    beta: GoldenNumber
    rho: GoldenNumber
    r0: GoldenNumber


PHI = GoldenNumber(Fraction(1, 2), Fraction(1, 2))
R0 = GoldenNumber(Fraction(18, 11), Fraction(-1, 11))
ALPHA = GoldenNumber(Fraction(7, 11), Fraction(-1, 11))
BETA = GoldenNumber(Fraction(7, 22), Fraction(-1, 22))
RHO = GoldenNumber(Fraction(-3, 11), Fraction(2, 11))


def constants() -> Constants:
    """The golden ratio and the pool growth rates of the golden construction.

    alpha = r0 - 1, beta = alpha / 2, rho = beta / phi, and
    2*alpha + 2*beta + rho = r0 exactly.
    """
    return Constants(phi=PHI, alpha=ALPHA, beta=BETA, rho=RHO, r0=R0)


_TERM_RE = re.compile(
    r"^(?:(?P<coef>\d+(?:\.\d+)?(?:/\d+)?)\*?)?(?P<sym>sqrt5|R0|phi)?$"
)
# the value of a term's symbol; a bare coefficient has none
_SYMBOLS = {"sqrt5": GoldenNumber(0, 1), "R0": R0, "phi": PHI,
            None: GoldenNumber(1)}


def parse_exact(text: str) -> GoldenNumber:
    """Parse an exact-number expression.

    Accepts sums and differences of terms, where a term is an integer, a
    fraction ``p/q``, a decimal, ``sqrt5``, ``phi``, ``R0``, or a rational
    multiple of those such as ``1/11*sqrt5``.  The output of ``str`` on a
    GoldenNumber parses back to the same value.
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty exact-number expression")
    # signs and terms alternate, with a "+" before an unsigned first term
    parts = re.split(r"([+-])", s if s[0] in "+-" else "+" + s)[1:]
    total = GoldenNumber()
    for sign, term in zip(parts[::2], parts[1::2]):
        m = _TERM_RE.match(term)
        if not m or not (m["coef"] or m["sym"]):
            raise ValueError(f"bad exact-number term {term!r} in {text!r}")
        try:
            coef = Fraction(m["coef"] or 1)
        except ZeroDivisionError:
            raise ValueError(
                f"zero denominator in term {term!r} of {text!r}"
            ) from None
        value = _SYMBOLS[m["sym"]] * coef
        total = total + (value if sign == "+" else -value)
    return total
