"""Exact arithmetic: rationals, big factorials and values in the set Q + Q*pi^2.

Every integral mean produced by the recursive quadrature is either a rational
number, a rational plus a rational multiple of pi^2, or +infinity.  This module
provides that value type.  Products of two such values never occur in the
recursions and are deliberately not implemented.
"""

from __future__ import annotations

import math
from fractions import Fraction


class InfiniteValueError(ArithmeticError):
    """Raised when a finite float is requested from an infinite value."""


class ScaleInfiniteByNonpositiveError(ArithmeticError):
    """Raised when an infinite value is scaled by a factor <= 0."""


def factorial(n: int) -> int:
    """n! as a big integer, n >= 0."""
    if n < 0:
        raise ValueError(f"factorial of negative index {n}")
    return math.factorial(n)


def _atan_inv(x: int, digits: int) -> Fraction:
    # arctan(1/x) by its alternating series; truncation error is below the
    # first omitted term, so stop once x^(2k+1) exceeds 10^digits.
    terms = int(digits / (2 * math.log10(x))) + 2
    acc = Fraction(0)
    for k in range(terms):
        acc += Fraction((-1) ** k, (2 * k + 1) * x ** (2 * k + 1))
    return acc

def _pi_squared(digits: int = 90) -> Fraction:
    # Machin: pi = 16 arctan(1/5) - 4 arctan(1/239).
    pi = 16 * _atan_inv(5, digits) - 4 * _atan_inv(239, digits)
    return pi * pi


#: Rational approximation of pi^2, accurate to far more than double precision.
PI_SQUARED = _pi_squared()

#: Nearest double of pi^2.
PI_SQUARED_FLOAT = float(PI_SQUARED)


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
        """Nearest double of q0 + q1*pi^2."""
        if self.infinite:
            raise InfiniteValueError("infinite value has no float")
        return float(self.q0 + self.q1 * PI_SQUARED)

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
