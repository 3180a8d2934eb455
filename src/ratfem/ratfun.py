"""Symbolic rational functions lam^alpha / (1-lam)^beta in barycentric coordinates.

A :class:`RatCombo` is a finite linear combination of terms
``coeff * lam0^a0 lam1^a1 lam2^a2 / ((1-lam0)^b0 (1-lam1)^b1 (1-lam2)^b2)``
with rational coefficients; a float coefficient or scalar, whose binary
expansion would be taken for the intended rational, is a TypeError.  The
class is closed under multiplication and differentiation with respect to the
barycentric coordinates, which is all the finite element tables need.
:func:`combo_values` and its gradient form evaluate lists of them in floating
point at arrays of points.
"""

from __future__ import annotations

import itertools
from numbers import Number

import numpy as np

from .exact import _rational


class SingularEvaluationError(ArithmeticError):
    """Evaluation point hits a vertex where the termwise limit is undefined."""


def midx_add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def midx_sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


_E = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_UPPER = [(i, j) for i in range(3) for j in range(i, 3)]   # Hessian entries


class RatCombo:
    """Linear combination of rational terms, keyed by (alpha, beta).

    Terms are collected eagerly: no two stored terms share a multi-index pair
    and zero coefficients are dropped, so structural equality of the term maps
    is equality of the represented functions within this class.  A combo is
    not changed once built, so its gradient and Hessian are kept on first use.
    """

    __slots__ = ("terms", "_grad", "_hessian")

    def __init__(self, terms=None):
        self.terms: dict = {}
        self._grad = self._hessian = None
        if terms:
            for (alpha, beta), coeff in terms.items():
                coeff = _rational(coeff)
                if coeff != 0:
                    self.terms[(tuple(alpha), tuple(beta))] = coeff

    @classmethod
    def monomial(cls, alpha, beta=(0, 0, 0), coeff=1) -> "RatCombo":
        """Single term coeff * lam^alpha / (1-lam)^beta."""
        alpha, beta = tuple(alpha), tuple(beta)
        if min(alpha) < 0 or min(beta) < 0:
            raise ValueError(f"negative multi-index: {alpha}, {beta}")
        return cls({(alpha, beta): coeff})

    @classmethod
    def one(cls) -> "RatCombo":
        return cls.monomial((0, 0, 0))

    @classmethod
    def lam(cls, j: int) -> "RatCombo":
        """The barycentric coordinate lam_j."""
        return cls.monomial(_E[j])

    def __add__(self, other):
        if not isinstance(other, RatCombo):
            return NotImplemented
        return _collect(itertools.chain(self.terms.items(), other.terms.items()))

    def __neg__(self):
        out = RatCombo()
        out.terms = {key: -coeff for key, coeff in self.terms.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, RatCombo):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "RatCombo":
        """Multiply by a rational scalar c; any other number is a TypeError."""
        c = _rational(c)
        if c == 0:
            return RatCombo()
        out = RatCombo()
        out.terms = {key: c * coeff for key, coeff in self.terms.items()}
        return out

    def __mul__(self, other):
        """Product; multi-indices add termwise (both numerator and denominator)."""
        if isinstance(other, Number):
            return self.scale(other)
        if not isinstance(other, RatCombo):
            return NotImplemented
        return _collect(((midx_add(a1, a2), midx_add(b1, b2)), c1 * c2)
                        for (a1, b1), c1 in self.terms.items()
                        for (a2, b2), c2 in other.terms.items())

    __rmul__ = __mul__

    def diff(self, j: int) -> "RatCombo":
        """Partial derivative with respect to lam_j.

        Termwise, by the quotient rule,
        d/dlam_j [lam^a/(1-lam)^b] = a_j lam^(a-e_j)/(1-lam)^b
                                     + b_j lam^a/(1-lam)^(b+e_j);
        the denominator term enters with a PLUS sign since
        d/dt (1-t)^(-b) = +b (1-t)^(-b-1).
        """
        def terms():
            for (alpha, beta), coeff in self.terms.items():
                if alpha[j] > 0:
                    yield (midx_sub(alpha, _E[j]), beta), coeff * alpha[j]
                if beta[j] > 0:
                    yield (alpha, midx_add(beta, _E[j])), coeff * beta[j]
        return _collect(terms())

    def grad(self):
        """Gradient with respect to (lam0, lam1, lam2) as a triple."""
        if self._grad is None:
            self._grad = (self.diff(0), self.diff(1), self.diff(2))
        return self._grad

    def hessian(self):
        """Symmetric 3x3 array of second lam-derivatives (nested tuples)."""
        if self._hessian is None:
            first = self.grad()
            upper = {(i, j): first[i].diff(j) for i, j in _UPPER}
            self._hessian = tuple(tuple(upper[min(i, j), max(i, j)]
                                        for j in range(3)) for i in range(3))
        return self._hessian

    def __eq__(self, other):
        if not isinstance(other, RatCombo):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


def _collect(pairs) -> RatCombo:
    """The RatCombo of summed (key, coeff) pairs; terms summing to 0 dropped."""
    acc: dict = {}
    for key, coeff in pairs:
        new = acc[key] + coeff if key in acc else coeff
        if new == 0:
            acc.pop(key, None)
        else:
            acc[key] = new
    out = RatCombo()
    out.terms = acc
    return out


def combo_values(funcs, bary) -> np.ndarray:
    """Float values of a list of RatCombos at barycentric points (Q,3) -> (Q,L).

    This is the one float evaluator.  At a vertex, where lam_i == 1.0, the
    denominator factor (1-lam_i)^beta_i of a term vanishes: the term is 0 if
    its numerator vanishing order sum(alpha_k, k != i) exceeds beta_i, and
    otherwise its limit is undefined and SingularEvaluationError is raised.
    """
    bary = np.asarray(bary, dtype=float)
    at_vertex = bary == 1.0
    vertices = [i for i in range(3) if at_vertex[:, i].any()]
    out = np.zeros((bary.shape[0], len(funcs)))
    with np.errstate(divide="ignore", invalid="ignore"):
        for r, f in enumerate(funcs):
            for (alpha, beta), coeff in f.terms.items():
                vanish = [i for i in vertices if beta[i]]
                for i in vanish:
                    if sum(alpha) - alpha[i] <= beta[i]:
                        raise SingularEvaluationError(
                            f"term lam^{alpha}/(1-lam)^{beta} singular "
                            f"at vertex {i}")
                term = float(coeff) * np.ones(bary.shape[0])
                for i in range(3):
                    if alpha[i]:
                        term = term * bary[:, i] ** alpha[i]
                    if beta[i]:
                        term = term / (1.0 - bary[:, i]) ** beta[i]
                if vanish:
                    term[at_vertex[:, vanish].any(axis=1)] = 0.0
                out[:, r] += term
    return out


def gradient_values(funcs, bary) -> np.ndarray:
    """Float lam-gradients of RatCombos at barycentric points -> (Q, L, 3)."""
    parts = [g for f in funcs for g in f.grad()]
    return combo_values(parts, bary).reshape(-1, len(funcs), 3)


def bubble(j: int) -> RatCombo:
    """Rational edge bubble for edge f_j (opposite vertex j).

    In multi-index form it is lam^((2,2,2)-e_j) / (1-lam)^((1,1,1)-e_j); on
    edge f_j it restricts to a cubic and it is C^1 on the closed triangle.
    """
    return RatCombo.monomial(midx_sub((2, 2, 2), _E[j]), midx_sub((1, 1, 1), _E[j]))
