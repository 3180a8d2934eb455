"""Exact integral means of lam^alpha/(1-lam)^beta over a triangle.

The mean is independent of the triangle, so everything here is a function of
the two multi-indices alone.  Two mutually recursive routines do the work:

* ``compute_J`` handles the Fubini-splittable case alpha0 = beta0 = 0 by
  iterated 1D integration; its only non-rational base case contributes pi^2/3.
* ``integral_mean`` reduces the general case to ``compute_J`` and to two
  factorial closed forms via index-lowering identities, memoized under
  permutation symmetry.

The module also provides the inexact tensorized Gauss rule on the reference
triangle used by the quadrature-error experiments.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from .exact import INFINITE, ExactValue, factorial
from .ratfun import _E, RatCombo, midx_add, midx_sub


class IndexNotFiniteError(ArithmeticError):
    """A closed form was requested outside its finiteness range."""


class InfiniteTermError(ArithmeticError):
    """A linear combination contains a non-integrable term."""


def is_finite_index(alpha, beta) -> bool:
    """True iff the integral mean of lam^alpha/(1-lam)^beta is finite."""
    return max(a + b for a, b in zip(alpha, beta)) <= sum(alpha) + 1


def integral_mean_poly(alpha, d: int | None = None) -> ExactValue:
    """Mean of lam^alpha over a d-simplex: d! alpha! / (d + |alpha|)!."""
    if d is None:
        d = len(alpha) - 1
    if d < 1 or len(alpha) != d + 1:
        raise ValueError(f"need d+1 indices for a d-simplex, got {alpha}")
    num = factorial(d)
    for a in alpha:
        num *= factorial(a)
    return ExactValue(Fraction(num, factorial(d + sum(alpha))))


def integral_mean_beta2(alpha, beta2: int) -> ExactValue:
    """Closed form for beta = (0, 0, beta2):

    2 a0! a1! a2! / (|alpha| - beta2 + 2)! * (a0 + a1 + 1 - beta2)! / (a0 + a1 + 1)!
    """
    a0, a1, a2 = alpha
    if not is_finite_index(alpha, (0, 0, beta2)):
        raise IndexNotFiniteError(f"I({alpha}, (0,0,{beta2})) is infinite")
    value = Fraction(2 * factorial(a0) * factorial(a1) * factorial(a2),
                     factorial(a0 + a1 + a2 - beta2 + 2))
    value *= Fraction(factorial(a0 + a1 + 1 - beta2), factorial(a0 + a1 + 1))
    return ExactValue(value)


def _harmonic2(n: int) -> Fraction:
    return sum((Fraction(1, i * i) for i in range(1, n + 1)), Fraction(0))


def compute_J(a1: int, a2: int, b1: int, b2: int) -> ExactValue:
    """Mean of x^a1 y^a2 / ((1-x)^b1 (1-y)^b2) over the reference triangle.

    Fubini splits the integral into nested 1D integrals.  The recursion lowers
    b1 + b2 until it reaches either the polynomial-weight case b1 = 0 or the
    case b1 = b2 = 1, whose y-integral of log(y)/(1-y) produces the pi^2/3
    term (a polygamma value); everything else is a factorial ratio.
    """
    if max(a1 + b1, a2 + b2) > a1 + a2 + 1:
        return INFINITE
    if b1 > b2:
        a1, a2, b1, b2 = a2, a1, b2, b1
    if b1 == 0:
        value = Fraction(2, a1 + 1) * Fraction(
            factorial(a2) * factorial(a1 - b2 + 1),
            factorial(a1 + a2 - b2 + 2))
        return ExactValue(value)
    if b1 == 1:
        if b2 == 1:
            q0 = -2 * _harmonic2(a2)
            for j in range(1, a1 + 1):
                q0 -= Fraction(2, j) * Fraction(
                    factorial(a2) * factorial(j - 1), factorial(a2 + j))
            return ExactValue(q0, Fraction(1, 3))
        rec = compute_J(a1, a2, 1, b2 - 1).scale(Fraction(b2 - a2 - 2, b2 - 1))
        extra = Fraction(2, b2 - 1) * Fraction(
            factorial(a1 - b2 + 1) * factorial(a2),
            factorial(a1 - b2 + a2 + 2))
        return rec + ExactValue(extra)
    rec = compute_J(a1, a2, b1 - 1, b2).scale(Fraction(b1 - a1 - 2, b1 - 1))
    extra = Fraction(2, b1 - 1) * Fraction(
        factorial(a2 - b1 + 1) * factorial(a1 - b2 + 1),
        factorial(a2 - b1 + a1 - b2 + 3))
    return rec + ExactValue(extra)


class MemoCache:
    """Memo table for integral means, keyed by the sorted (alpha_i, beta_i) pairs.

    Sorting is justified by the permutation invariance of the mean and shrinks
    the table by up to a factor six.
    """

    __slots__ = ("table",)

    def __init__(self):
        self.table: dict = {}

    @staticmethod
    def key(alpha, beta):
        return tuple(sorted(zip(alpha, beta)))

    def get(self, alpha, beta):
        return self.table.get(self.key(alpha, beta))

    def put(self, alpha, beta, value: ExactValue) -> ExactValue:
        self.table[self.key(alpha, beta)] = value
        return value

    def __len__(self):
        return len(self.table)


#: Shared default cache; computations are pure so sharing is safe.
DEFAULT_CACHE = MemoCache()

def integral_mean(alpha, beta, cache: MemoCache | None = None) -> ExactValue:
    """Mean of lam^alpha/(1-lam)^beta over any triangle (exact).

    Branches, in order: finiteness guard; sort the index pairs so the beta
    entries increase; factorial closed form when the two smallest beta vanish;
    a four-term reduction when all beta are positive; delegation to
    ``compute_J`` when alpha0 = 0; two three-term reductions lowering alpha0;
    and a six-term reduction for the remaining tie case.
    """
    alpha = tuple(alpha)
    beta = tuple(beta)
    if cache is None:
        cache = DEFAULT_CACHE
    cached = cache.get(alpha, beta)
    if cached is not None:
        return cached
    value = _integral_mean_impl(alpha, beta, cache)
    return cache.put(alpha, beta, value)


def _integral_mean_impl(alpha, beta, cache) -> ExactValue:
    asum = sum(alpha)
    if max(a + b for a, b in zip(alpha, beta)) > asum + 1:
        return INFINITE

    pairs = sorted(zip(alpha, beta), key=lambda ab: (ab[1], ab[0]))
    alpha = tuple(a for a, _ in pairs)
    beta = tuple(b for _, b in pairs)

    if beta[0] == 0 and beta[1] == 0:
        return integral_mean_beta2(alpha, beta[2])

    if beta[0] >= 1:
        acc = ExactValue(0)
        for j in range(3):
            acc = acc + integral_mean(alpha, midx_sub(beta, _E[j]), cache)
        return acc.scale(Fraction(1, 2))

    if alpha[0] == 0:
        return compute_J(alpha[1], alpha[2], beta[1], beta[2])

    lowered = midx_sub(alpha, _E[0])
    if alpha[1] + beta[1] < asum + 1:
        return (integral_mean(lowered, midx_sub(beta, _E[2]), cache)
                - integral_mean(midx_add(lowered, _E[1]), beta, cache))

    if alpha[2] + beta[2] < asum + 1:
        return (integral_mean(lowered, midx_sub(beta, _E[1]), cache)
                - integral_mean(midx_add(lowered, _E[2]), beta, cache))

    acc = ExactValue(0)
    for j in (1, 2):
        acc = acc + integral_mean(alpha, midx_sub(beta, _E[j]), cache)
        acc = acc + integral_mean(midx_add(lowered, _E[j]),
                                  midx_sub(beta, _E[j]), cache)
    acc = acc.scale(Fraction(1, 2))
    return acc - integral_mean(midx_add(lowered, (0, 1, 1)), beta, cache)


def integral_mean_combo(f: RatCombo, cache: MemoCache | None = None) -> ExactValue:
    """Exact mean of a rational linear combination; all terms must be finite."""
    total = ExactValue(0)
    for (alpha, beta), coeff in f.terms.items():
        value = integral_mean(alpha, beta, cache)
        if value.infinite:
            raise InfiniteTermError(
                f"term lam^{alpha}/(1-lam)^{beta} is not integrable")
        total = total + value.scale(coeff)
    return total


# ---------------------------------------------------------------------------
# Inexact quadrature: tensorized 1D Gauss via Fubini on the reference triangle.

def _legendre_and_derivative(n: int, x: np.ndarray):
    # three-term recurrence for P_n (n >= 1) and its derivative on (-1, 1)
    p0 = np.ones_like(x)
    p1 = x.copy()
    for m in range(2, n + 1):
        p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


def gauss_legendre_01(n: int):
    """n-point Gauss-Legendre nodes and weights on [0, 1].

    Newton iteration on the Legendre polynomial P_n from the Chebyshev initial
    guess; no tables, any n >= 1.
    """
    if n < 1:
        raise ValueError("need at least one Gauss point")
    if n == 1:
        return np.array([0.5]), np.array([1.0])
    k = np.arange(n)
    x = np.cos(np.pi * (k + 0.75) / (n + 0.5))
    for _ in range(100):
        pn, dpn = _legendre_and_derivative(n, x)
        dx = pn / dpn
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    _, dpn = _legendre_and_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dpn ** 2)
    order = np.argsort(x)
    x, w = x[order], w[order]
    return (x + 1.0) / 2.0, w / 2.0


@functools.cache
def gauss_points(n: int):
    """Fubini-Gauss rule on the reference triangle [(0,0), (1,0), (0,1)].

    Outer axis: n Gauss points x_i on [0,1]; inner axis: n Gauss points on
    [0, 1-x_i] with weights scaled by (1-x_i).  Exact for polynomials of total
    degree up to 2n-2.  Returns the read-only barycentric points (n*n, 3) and
    mean weights 2 w_q, which sum to one: a sum against them is the rule's
    value of an integral mean.
    """
    x, wx = gauss_legendre_01(n)
    xi, scale = np.repeat(x, n), 1.0 - np.repeat(x, n)
    y = np.tile(x, n) * scale
    bary = np.column_stack([1.0 - xi - y, xi, y])
    w2 = 2.0 * (np.repeat(wx, n) * np.tile(wx, n) * scale)
    bary.flags.writeable = w2.flags.writeable = False
    return bary, w2
