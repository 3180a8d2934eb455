"""Exact integral means of lam^alpha/(1-lam)^beta over a triangle.

The mean is independent of the triangle, so everything here is a function of
the two multi-indices alone.  ``_reduction`` is one step of the recursive
formula: a closed form, or a linear combination of means with lower indices.
``integral_mean`` evaluates it with an explicit stack over a memo keyed under
permutation symmetry; the only non-rational base case contributes pi^2/3.

The module also provides the inexact tensorized Gauss rule on the reference
triangle used by the quadrature-error experiments.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import factorial, gcd

import numpy as np

from .exact import INFINITE, ExactValue
from .ratfun import _E, RatCombo, midx_add, midx_sub

class IndexNotFiniteError(ArithmeticError):
    """A closed form was requested outside its finiteness range."""


class InfiniteTermError(ArithmeticError):
    """A linear combination contains a non-integrable term."""


def is_finite_index(alpha, beta) -> bool:
    """True iff the mean of lam^alpha/(1-lam)^beta, three indices each, is finite."""
    (a0, a1, a2), (b0, b1, b2) = alpha, beta
    return max(a0 + b0, a1 + b1, a2 + b2) <= a0 + a1 + a2 + 1


def integral_mean_poly(alpha, d: int | None = None) -> ExactValue:
    """Mean of lam^alpha over a d-simplex: d! alpha! / (d + |alpha|)!."""
    d = len(alpha) - 1 if d is None else d
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


def compute_J(a1: int, a2: int, b1: int, b2: int) -> ExactValue:
    """Mean of x^a1 y^a2 / ((1-x)^b1 (1-y)^b2) over the reference triangle.

    This is the Fubini case alpha0 = beta0 = 0 of :func:`integral_mean`.
    """
    return integral_mean((0, a1, a2), (0, b1, b2))


def _reduction(alpha, beta):
    """One step of the recursive formula for the mean I(alpha, beta).

    Returns INFINITE, a closed-form ExactValue, or ((n, d), terms), meaning
    I = n/d + sum(p/q * I(alpha', beta') for (p, q), alpha', beta' in terms)
    with integers d, q > 0, so a reduction builds no Fraction.  After sorting
    the index pairs so the beta entries increase, the branches are: the
    factorial closed form when the two smallest beta vanish; a four-term
    reduction when all beta are positive; for alpha0 = 0, the Fubini case
    J(a1, a2, b1, b2) of :func:`compute_J`, the pi^2/3 (polygamma) base case
    b1 = b2 = 1 or a first-order recurrence lowering b1 (b2 when b1 = 1); two
    three-term reductions lowering alpha0; and a six-term reduction for the
    remaining tie case.
    """
    if not is_finite_index(alpha, beta):
        return INFINITE
    beta, alpha = zip(*sorted(zip(beta, alpha)))
    a0, a1, a2 = alpha
    if beta[1] == 0:
        return integral_mean_beta2(alpha, beta[2])
    if beta[0] >= 1:
        return (0, 1), [((1, 2), alpha, midx_sub(beta, e)) for e in _E]
    if a0 == 0:
        if beta[2] == 1:
            # the y-integral of log(y)/(1-y) gives the pi^2/3 term
            q0 = -sum(Fraction(2, i * i) for i in range(1, a2 + 1)) - sum(
                Fraction(2 * factorial(a2) * factorial(j - 1), j * factorial(a2 + j))
                for j in range(1, a1 + 1))
            return ExactValue(q0, Fraction(1, 3))
        # bk >= 2 here: b1 = 1 lowers b2, and b1 = b2 = 1 was the base case
        k, o = (1, 2) if beta[1] > 1 else (2, 1)
        ak, bk, ao, bo = alpha[k], beta[k], alpha[o], beta[o]
        extra = (2 * factorial(ao - bk + 1) * factorial(ak - bo + 1),
                 (bk - 1) * factorial(ao - bk + ak - bo + 3))
        return extra, [((bk - ak - 2, bk - 1), alpha, midx_sub(beta, _E[k]))]
    lowered = midx_sub(alpha, _E[0])
    for j, k in ((1, 2), (2, 1)):
        if alpha[j] + beta[j] <= a0 + a1 + a2:
            return (0, 1), [((1, 1), lowered, midx_sub(beta, _E[k])),
                            ((-1, 1), midx_add(lowered, _E[j]), beta)]
    return (0, 1), [((1, 2), a, midx_sub(beta, _E[j]))
                    for j in (1, 2) for a in (alpha, midx_add(lowered, _E[j]))
                    ] + [((-1, 1), midx_add(lowered, (0, 1, 1)), beta)]


class MemoCache:
    """Memo table for integral means under permutation symmetry.

    A key is the sorted (alpha_i, beta_i) pairs flattened into one 6-tuple
    (a0, b0, a1, b1, a2, b2).  Sorting is justified by the permutation
    invariance of the mean and shrinks the table by up to a factor six; a flat
    tuple of small ints is smaller and hashes faster than a tuple of pairs.
    """

    __slots__ = ("table",)

    def __init__(self):
        self.table: dict = {}

    @staticmethod
    def key(alpha, beta):
        # a three-comparison sorting network on the (alpha_i, beta_i) pairs
        (a0, a1, a2), (b0, b1, b2) = alpha, beta
        p, q, r = (a0, b0), (a1, b1), (a2, b2)
        if p > q:
            p, q = q, p
        if q > r:
            q, r = r, q
            if p > q:
                p, q = q, p
        return (*p, *q, *r)

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

    A memo hit returns at once.  Otherwise the mean is worked through
    :func:`_reduction` with an explicit stack instead of recursion, so the
    index size is limited by time and memory alone.  Each index pair is
    reduced once; its terms are looked up through ``cache.get`` one after the
    other, and every new mean is stored through ``cache.put``.  A finite
    mean's terms are finite: each (p/q)*(a/b + (c/d)*pi^2) joins the integer
    numerators n0, n1 of the frame over their shared denominator, lifted to
    the lcm with q*b*d by one gcd, and the mean is normalised into two
    fractions once, when it is finished.
    """
    if cache is None:
        cache = DEFAULT_CACHE
    value = cache.get(alpha, beta)
    if value is not None:
        return value
    # the current frame lives in locals; a frame waiting on its term p/q * I(...)
    # is pushed as (alpha, beta, n0, den, n1, terms left, p, q)
    stack = []
    while True:
        step = _reduction(alpha, beta)
        if isinstance(step, ExactValue):
            value = cache.put(alpha, beta, step)
            if not stack:
                return value
            alpha, beta, n0, den, n1, terms, p, q = stack.pop()
        else:
            (n0, den), terms = step
            n1, terms, value = 0, iter(terms), None
        while True:
            if value is not None:
                a, b = value.q0.as_integer_ratio()
                c, d = value.q1.as_integer_ratio()
                g = gcd(den, t := q * b * d)
                up, s = t // g, p * (den // g)
                n0, den, n1 = n0 * up + s * a * d, den * up, n1 * up + s * c * b
            term = next(terms, None)
            if term is None:
                value = cache.put(alpha, beta, ExactValue.from_numerators(n0, n1, den))
                if not stack:
                    return value
                alpha, beta, n0, den, n1, terms, p, q = stack.pop()
                continue
            (p, q), lower_alpha, lower_beta = term
            value = cache.get(lower_alpha, lower_beta)
            if value is None:
                stack.append((alpha, beta, n0, den, n1, terms, p, q))
                alpha, beta = lower_alpha, lower_beta
                break


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
