"""Exact arithmetic: rationals, big factorials and values in the set Q + Q*pi^2.

Every integral mean produced by the recursive quadrature is either a rational
number, a rational plus a rational multiple of pi^2, or +infinity.  This module
provides that value type.  Products of two such values never occur in the
recursions and are deliberately not implemented.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


class InfiniteValueError(ArithmeticError):
    """Raised when a finite float is requested from an infinite value."""


class ScaleInfiniteByNonpositiveError(ArithmeticError):
    """Raised when an infinite value is scaled by a factor <= 0."""


def factorial(n: int) -> int:
    """n! as a big integer, n >= 0."""
    if n < 0:
        raise ValueError(f"factorial of negative index {n}")
    return math.factorial(n)


def _atan_inv_scaled(x: int, bits: int) -> tuple[int, int]:
    """2^bits * arctan(1/x) summed in integers, and a bound on its error.

    Each term floor(2^bits / ((2k+1) x^(2k+1))) is within one of its value,
    and the alternating tail after the first term that floors to zero is
    below one, so k terms are off by less than k + 1.
    """
    acc, k, power = 0, 0, x
    while term := (1 << bits) // power:
        acc += (-1) ** k * (term // (2 * k + 1))
        k, power = k + 1, power * x * x
    return acc, k + 1


@lru_cache(maxsize=None)
def _pi_squared_bracket(bits: int) -> tuple[int, int]:
    """Integers lo, hi with lo <= pi^2 * 4^bits <= hi (Machin's formula)."""
    a5, e5 = _atan_inv_scaled(5, bits)
    a239, e239 = _atan_inv_scaled(239, bits)
    pi, err = 16 * a5 - 4 * a239, 16 * e5 + 4 * e239
    return (pi - err) ** 2, (pi + err) ** 2


class ExactValue:
    """An element of Q + Q*pi^2, or +infinity.

    Supports addition, subtraction and scaling by rationals; all operations
    are exact.  The only rounding in the whole pipeline happens in
    :meth:`to_float`.
    """

    __slots__ = ("q0", "q1", "infinite")

    def __init__(self, q0=0, q1=0, infinite: bool = False):
        if infinite:
            self.q0 = None
            self.q1 = None
            self.infinite = True
        else:
            self.q0 = Fraction(q0)
            self.q1 = Fraction(q1)
            self.infinite = False

    def __add__(self, other: "ExactValue") -> "ExactValue":
        if not isinstance(other, ExactValue):
            return NotImplemented
        if self.infinite or other.infinite:
            return INFINITE
        return ExactValue(self.q0 + other.q0, self.q1 + other.q1)

    def __sub__(self, other: "ExactValue") -> "ExactValue":
        if not isinstance(other, ExactValue):
            return NotImplemented
        if self.infinite or other.infinite:
            raise InfiniteValueError("subtraction involving an infinite value")
        return ExactValue(self.q0 - other.q0, self.q1 - other.q1)

    def __neg__(self) -> "ExactValue":
        if self.infinite:
            raise InfiniteValueError("negation of an infinite value")
        return ExactValue(-self.q0, -self.q1)

    def scale(self, c) -> "ExactValue":
        """Multiply by a rational scalar c; infinity only admits c > 0."""
        c = Fraction(c)
        if self.infinite:
            if c <= 0:
                raise ScaleInfiniteByNonpositiveError(
                    f"cannot scale infinite value by {c}")
            return INFINITE
        return ExactValue(c * self.q0, c * self.q1)

    def __rmul__(self, c) -> "ExactValue":
        return self.scale(c)

    def to_float(self) -> float:
        """Nearest double of q0 + q1*pi^2, correctly rounded (Ziv's loop).

        With pi^2 * 4^bits in [lo, hi], the value lies between two quotients
        of integers, which Python rounds correctly.  Once both round to the
        same double, so does the value; until then the bits double.  Unless
        q1 = 0 the value is irrational, so it is never a tie between doubles
        and the loop ends.
        """
        if self.infinite:
            raise InfiniteValueError("infinite value has no float")
        a, b = self.q0.numerator, self.q0.denominator
        c, d = self.q1.numerator, self.q1.denominator
        if c == 0:
            return a / b
        bits = 128
        while True:
            lo, hi = _pi_squared_bracket(bits)
            base, den = a * d << 2 * bits, b * d << 2 * bits
            x, y = (base + c * b * lo) / den, (base + c * b * hi) / den
            if x == y and math.copysign(1.0, x) == math.copysign(1.0, y):
                return x
            bits *= 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactValue):
            return NotImplemented
        if self.infinite or other.infinite:
            return self.infinite and other.infinite
        return self.q0 == other.q0 and self.q1 == other.q1

    def __hash__(self):
        return hash((self.q0, self.q1, self.infinite))

    def __str__(self) -> str:
        if self.infinite:
            return "inf"
        if self.q1 == 0:
            return str(self.q0)
        pi_part = f"{self.q1}*pi^2" if self.q1 > 0 else f"- {-self.q1}*pi^2"
        if self.q0 == 0:
            return f"{self.q1}*pi^2"
        joiner = "+ " if self.q1 > 0 else ""
        return f"{self.q0} {joiner}{pi_part}"

    def __repr__(self) -> str:
        if self.infinite:
            return "ExactValue.INFINITE"
        return f"ExactValue({self.q0!r}, {self.q1!r})"


#: The absorbing infinite value returned for non-integrable indices.
INFINITE = ExactValue(infinite=True)
