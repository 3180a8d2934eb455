"""The recursive exact integral means, as ratfem.quadrature first wrote them.

``compute_J`` and ``integral_mean`` below are two mutually recursive
routines; ``ratfem.quadrature`` now evaluates the same formula with one
reduction step and an explicit stack, and ``test_quadrature.py`` requires
exact equality between the two.  Deep indices need a raised recursion limit
here.  The closed form ``integral_mean_beta2`` and the value type are shared
with the code under test; ``test_quadrature.py`` checks that closed form
against ``integral_mean_poly`` and the Duffy oracle.
"""

from fractions import Fraction
from math import factorial

from ratfem.exact import INFINITE, ExactValue
from ratfem.quadrature import MemoCache, integral_mean_beta2
from ratfem.ratfun import _E, midx_add, midx_sub


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


def integral_mean(alpha, beta, cache: MemoCache) -> ExactValue:
    """Mean of lam^alpha/(1-lam)^beta over any triangle (exact).

    Branches, in order: finiteness guard; sort the index pairs so the beta
    entries increase; factorial closed form when the two smallest beta vanish;
    a four-term reduction when all beta are positive; delegation to
    ``compute_J`` when alpha0 = 0; two three-term reductions lowering alpha0;
    and a six-term reduction for the remaining tie case.
    """
    alpha = tuple(alpha)
    beta = tuple(beta)
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
                + integral_mean(midx_add(lowered, _E[1]), beta, cache).scale(-1))

    if alpha[2] + beta[2] < asum + 1:
        return (integral_mean(lowered, midx_sub(beta, _E[1]), cache)
                + integral_mean(midx_add(lowered, _E[2]), beta, cache).scale(-1))

    acc = ExactValue(0)
    for j in (1, 2):
        acc = acc + integral_mean(alpha, midx_sub(beta, _E[j]), cache)
        acc = acc + integral_mean(midx_add(lowered, _E[j]),
                                  midx_sub(beta, _E[j]), cache)
    acc = acc.scale(Fraction(1, 2))
    return acc + integral_mean(midx_add(lowered, (0, 1, 1)), beta, cache).scale(-1)
