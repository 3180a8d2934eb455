import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratfem.exact import (INFINITE, ExactValue, InfiniteValueError,
                          ScaleInfiniteByNonpositiveError,
                          _pi_squared_bracket, factorial)


def test_factorial_values():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(12) == 479001600
    with pytest.raises(ValueError):
        factorial(-1)


def test_pi_squared_against_independent_series():
    # pi = 4 (arctan(1/2) + arctan(1/3)), summed exactly with rationals
    def atan_inv(x, terms):
        return sum(Fraction((-1) ** k, (2 * k + 1) * x ** (2 * k + 1))
                   for k in range(terms))
    pi = 4 * (atan_inv(2, 140) + atan_inv(3, 90))     # within 1e-85 of pi
    for bits in (128, 256):
        lo, hi = (Fraction(x, 4 ** bits) for x in _pi_squared_bracket(bits))
        assert lo - Fraction(1, 10 ** 80) < pi * pi < hi + Fraction(1, 10 ** 80)
        assert hi - lo < Fraction(1, 2 ** (bits - 16))
    assert ExactValue(0, 1).to_float() == math.pi ** 2


def test_add():
    a = ExactValue(Fraction(1, 2), 0)
    b = ExactValue(Fraction(1, 2), 1)
    assert a + b == ExactValue(1, 1)
    assert INFINITE + ExactValue(3, 0) == INFINITE
    assert ExactValue(Fraction(1, 3)) + ExactValue(Fraction(-1, 3)) == ExactValue(0)


def test_scale():
    assert ExactValue(2, 4).scale(Fraction(1, 2)) == ExactValue(1, 2)
    assert ExactValue(5, 0).scale(0) == ExactValue(0, 0)
    assert INFINITE.scale(3) == INFINITE
    with pytest.raises(ScaleInfiniteByNonpositiveError):
        INFINITE.scale(0)
    with pytest.raises(ScaleInfiniteByNonpositiveError):
        INFINITE.scale(-2)


def test_to_float():
    third = ExactValue(Fraction(1, 3), 0)
    assert third.to_float() == 1.0 / 3.0
    pith = ExactValue(0, Fraction(1, 3))
    assert abs(pith.to_float() - 3.2898681336964528) < 1e-15
    assert ExactValue(0, 0).to_float() == 0.0
    with pytest.raises(InfiniteValueError):
        INFINITE.to_float()


def test_float_agreement_within_ulps():
    rng = random.Random(7)
    for _ in range(200):
        a = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        b = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        exact = ExactValue(a, b).to_float()
        naive = float(a) + float(b) * math.pi ** 2
        assert abs(exact - naive) <= 4 * math.ulp(max(abs(exact), abs(naive), 1e-300))


def mp_float(q0, q1):
    """q0 + q1*pi^2 at 400 digits, rounded once to a double by mpmath."""
    with mpmath.workdps(400):
        return float(mpmath.mpf(q0.numerator) / q0.denominator
                     + mpmath.mpf(q1.numerator) / q1.denominator * mpmath.pi ** 2)


def pi_squared_digits(digits):
    """floor(pi^2 * 10^digits), from mpmath at 400 digits."""
    with mpmath.workdps(400):
        return int(mpmath.floor(mpmath.pi ** 2 * 10 ** digits))


def test_to_float_under_cancellation():
    # pi^2 minus its 120-digit truncation: a fixed 90-digit pi^2 gave -7.9e-94
    r = Fraction(pi_squared_digits(120), 10 ** 120)
    value = ExactValue(-r, 1).to_float()
    assert value == mp_float(-r, Fraction(1))
    assert 7.72e-121 < value < 7.73e-121


@settings(max_examples=300, deadline=None)
@given(q1=st.fractions(-10 ** 12, 10 ** 12, max_denominator=10 ** 40),
       digits=st.integers(0, 150), offset=st.integers(-10 ** 6, 10 ** 6),
       shift=st.fractions(-10 ** 12, 10 ** 12, max_denominator=10 ** 40))
def test_to_float_is_correctly_rounded(q1, digits, offset, shift):
    # q0 cancels q1*pi^2 to about `digits` digits; `shift` is a generic q0
    near = -q1 * Fraction(pi_squared_digits(digits) + offset, 10 ** digits)
    for q0 in (near, shift):
        assert ExactValue(q0, q1).to_float() == mp_float(q0, q1)


def test_ring_laws_random():
    rng = random.Random(11)
    for _ in range(100):
        a, b, c = (Fraction(rng.randint(-50, 50), rng.randint(1, 50))
                   for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_serialization():
    assert str(ExactValue(-2, Fraction(1, 3))) == "-2 + 1/3*pi^2"
    assert str(INFINITE) == "inf"
    assert str(ExactValue(0, 0)) == "0"
    assert str(ExactValue(Fraction(1, 3), 0)) == "1/3"
    assert str(ExactValue(0, Fraction(1, 3))) == "1/3*pi^2"
    assert str(ExactValue(1, -1)) == "1 - 1*pi^2"


def test_subtraction_and_negation():
    assert ExactValue(3, 2) - ExactValue(1, 2) == ExactValue(2, 0)
    assert -ExactValue(1, -1) == ExactValue(-1, 1)
    with pytest.raises(InfiniteValueError):
        _ = INFINITE - ExactValue(1, 0)


def test_equality_and_hash():
    assert ExactValue(Fraction(2, 4), 0) == ExactValue(Fraction(1, 2), 0)
    assert hash(ExactValue(1, 2)) == hash(ExactValue(1, 2))
    assert INFINITE == INFINITE
    assert INFINITE != ExactValue(1, 0)
