"""Exact values in the set Q + Q*pi^2, or +infinity.

Every integral mean produced by the recursive quadrature is either a rational
number, a rational plus a rational multiple of pi^2, or +infinity.  This module
provides that value type.  The recursions only add means and scale them by
rationals, so those are the only operations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from numbers import Rational


class InfiniteValueError(ArithmeticError):
    """Raised when a finite float is requested from an infinite value."""


class ScaleInfiniteByNonpositiveError(ArithmeticError):
    """Raised when an infinite value is scaled by a factor <= 0."""


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


def _rational(x) -> Fraction:
    if not isinstance(x, Rational):
        raise TypeError(f"expected a rational, got {type(x).__name__} {x!r}")
    return Fraction(x)


class ExactValue:
    """An element of Q + Q*pi^2, or +infinity.

    Supports addition and scaling by rationals; both are exact.  The only
    rounding in the whole pipeline happens in :meth:`to_float`.  A float,
    whose binary expansion would be taken for the intended rational, is a
    TypeError.
    """

    __slots__ = ("q0", "q1", "infinite")

    def __init__(self, q0=0, q1=0, infinite: bool = False):
        if infinite:
            self.q0 = self.q1 = None
            self.infinite = True
        else:
            self.q0, self.q1 = _rational(q0), _rational(q1)
            self.infinite = False

    @classmethod
    def from_numerators(cls, n0: int, n1: int, den: int) -> "ExactValue":
        """n0/den + (n1/den)*pi^2 for integers with den > 0, normalised once."""
        self = object.__new__(cls)
        self.q0, self.q1, self.infinite = Fraction(n0, den), Fraction(n1, den), False
        return self

    def __add__(self, other: "ExactValue") -> "ExactValue":
        if not isinstance(other, ExactValue):
            return NotImplemented
        if self.infinite or other.infinite:
            return INFINITE
        return ExactValue(self.q0 + other.q0, self.q1 + other.q1)

    def scale(self, c) -> "ExactValue":
        """Multiply by a rational scalar c; infinity only admits c > 0."""
        c = _rational(c)
        if self.infinite:
            if c <= 0:
                raise ScaleInfiniteByNonpositiveError(
                    f"cannot scale infinite value by {c}")
            return INFINITE
        return ExactValue(c * self.q0, c * self.q1)

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
        a, b = self.q0.as_integer_ratio()
        c, d = self.q1.as_integer_ratio()
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


#: The absorbing infinite value returned for non-integrable indices.
INFINITE = ExactValue(infinite=True)
