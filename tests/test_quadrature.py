import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadref
from oracle import duffy_mean
from ratfem.exact import INFINITE, ExactValue
from ratfem.quadrature import (IndexNotFiniteError, InfiniteTermError,
                               MemoCache, compute_J, gauss_legendre_01,
                               gauss_points, integral_mean,
                               integral_mean_beta2, integral_mean_combo,
                               integral_mean_poly, is_finite_index)
from ratfem.ratfun import RatCombo, bubble, combo_values

F = Fraction


def test_integral_mean_poly():
    assert integral_mean_poly((0, 0, 0)) == ExactValue(1)
    assert integral_mean_poly((1, 0, 0)) == ExactValue(F(1, 3))
    assert integral_mean_poly((1, 1, 1)) == ExactValue(F(1, 60))
    # dimension-generic: 3-simplex mean of lam^(1,0,0,0) is 1/4
    assert integral_mean_poly((1, 0, 0, 0), d=3) == ExactValue(F(1, 4))
    with pytest.raises(ValueError):
        integral_mean_poly((1, 0), d=2)


def test_integral_mean_beta2():
    assert integral_mean_beta2((0, 0, 0), 1) == ExactValue(2)
    assert integral_mean_beta2((0, 0, 1), 1) == ExactValue(1)
    assert integral_mean_beta2((0, 0, 0), 0) == ExactValue(1)
    with pytest.raises(IndexNotFiniteError):
        integral_mean_beta2((0, 0, 0), 2)


def test_compute_J_base_cases():
    assert compute_J(0, 0, 1, 1) == ExactValue(0, F(1, 3))
    assert compute_J(1, 0, 1, 1) == ExactValue(-2, F(1, 3))
    assert compute_J(0, 0, 0, 2) == INFINITE


def test_compute_J_swap_symmetry():
    for a1, a2, b1, b2 in itertools.product(range(4), repeat=4):
        assert compute_J(a1, a2, b1, b2) == compute_J(a2, a1, b2, b1)


def test_compute_J_against_oracle():
    for a1, a2, b1, b2 in itertools.product(range(3), repeat=4):
        val = compute_J(a1, a2, b1, b2)
        if val.infinite:
            continue
        ref = duffy_mean((0, a1, a2), (0, b1, b2))
        assert val.to_float() == pytest.approx(ref, rel=1e-11, abs=1e-13)


def test_integral_mean_examples():
    assert integral_mean((0, 0, 0), (0, 0, 0)) == ExactValue(1)
    mean_bubble = integral_mean((1, 2, 2), (0, 1, 1))
    assert not mean_bubble.infinite
    assert mean_bubble.to_float() > 0
    assert mean_bubble.to_float() == pytest.approx(
        duffy_mean((1, 2, 2), (0, 1, 1)), rel=1e-12)
    # four-term reduction: I(0, (1,1,1)) = 3/2 * J(0,0,1,1)
    assert integral_mean((0, 0, 0), (1, 1, 1)) == compute_J(0, 0, 1, 1).scale(F(3, 2))


def test_closed_form_consistency_small():
    for alpha in itertools.product(range(4), repeat=3):
        assert integral_mean(alpha, (0, 0, 0)) == integral_mean_poly(alpha)
        for b2 in range(4):
            beta = (0, 0, b2)
            if is_finite_index(alpha, beta):
                assert integral_mean(alpha, beta) == integral_mean_beta2(alpha, b2)


def test_permutation_invariance():
    cases = [((1, 2, 0), (1, 0, 2)), ((2, 1, 3), (1, 1, 0)),
             ((0, 2, 2), (1, 1, 1)), ((1, 2, 2), (0, 1, 1))]
    for alpha, beta in cases:
        base = integral_mean(alpha, beta)
        for sigma in itertools.permutations(range(3)):
            a = tuple(alpha[i] for i in sigma)
            b = tuple(beta[i] for i in sigma)
            assert integral_mean(a, b) == base


def indices(top):
    return st.tuples(*[st.integers(0, top)] * 3)


@settings(max_examples=150, deadline=None)
@given(alpha=indices(7), beta=indices(5))
def test_mean_matches_recursive_reference(alpha, beta):
    assert integral_mean(alpha, beta, MemoCache()) == quadref.integral_mean(
        alpha, beta, MemoCache())


@settings(max_examples=150, deadline=None)
@given(a=st.tuples(st.integers(0, 12), st.integers(0, 12)),
       b=st.tuples(st.integers(0, 8), st.integers(0, 8)))
def test_fubini_case_matches_recursive_reference(a, b):
    value = integral_mean((0, *a), (0, *b), MemoCache())
    assert value == quadref.compute_J(*a, *b)


@settings(max_examples=150, deadline=None)
@given(alpha=indices(10), b2=st.integers(0, 12),
       sigma=st.permutations(range(3)))
def test_mean_matches_closed_forms(alpha, b2, sigma):
    beta = (0, 0, b2)
    value = integral_mean(tuple(alpha[i] for i in sigma),
                          tuple(beta[i] for i in sigma), MemoCache())
    if not is_finite_index(alpha, beta):
        assert value == INFINITE
    else:
        assert value == integral_mean_beta2(alpha, b2)
    if b2 == 0:
        assert value == integral_mean_poly(alpha)


@settings(max_examples=30, deadline=None)
@given(alpha=indices(4), beta=indices(3))
def test_mean_matches_duffy_oracle(alpha, beta):
    value = integral_mean(alpha, beta, MemoCache())
    if not is_finite_index(alpha, beta):
        assert value == INFINITE
    else:
        assert value.to_float() == pytest.approx(duffy_mean(alpha, beta),
                                                 rel=1e-10)


@pytest.mark.parametrize("alpha, beta, expected", [
    ((0, 2000, 2000), (0, 1, 2000), 2.497500625625155e-10),
    ((2000, 1, 1), (0, 1, 1), 1.2462565540713195e-13),
    ((1200, 1, 1), (1, 1, 1), 3.8483919471742835e-10)])
def test_deep_indices_match_recursive_reference(alpha, beta, expected):
    # each case nests more reductions than the default recursion limit allows
    value = integral_mean(alpha, beta)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20000)
    try:
        reference = quadref.integral_mean(alpha, beta, MemoCache())
    finally:
        sys.setrecursionlimit(limit)
    assert value == reference
    assert value.to_float() == expected


def test_fubini_chain_is_memoized():
    cache = MemoCache()
    value = integral_mean((0, 5, 5), (0, 1, 4), cache)
    for b2 in (1, 2, 3, 4):
        assert cache.get((0, 5, 5), (0, 1, b2)) is not None
    assert value == quadref.compute_J(5, 5, 1, 4)


def test_memoized_and_fresh_agree():
    shared = MemoCache()
    for alpha, beta in [((2, 2, 2), (2, 2, 2)), ((3, 1, 2), (0, 2, 1))]:
        v1 = integral_mean(alpha, beta, shared)
        v2 = integral_mean(alpha, beta, MemoCache())
        assert v1 == v2
    assert len(shared) > 2


def test_recursion_pins_its_exact_value_and_memo_size():
    cache = MemoCache()
    value = integral_mean((11, 16, 10), (7, 3, 8), cache)
    assert value.q0 == F(1127538525711054978824993, 118842929805600)
    assert value.q1 == F(-15749915708931, 16384)
    assert len(cache) == 8163


def test_cold_deep_mean_pins_its_value_and_memo_size():
    cache = MemoCache()
    value = integral_mean((24, 24, 24), (12, 12, 12), cache)
    assert len(cache) == 37187
    assert value.to_float() == 3.588250607318153e-30


index_pairs = st.tuples(*[st.tuples(st.integers(0, 3000), st.integers(0, 3000))] * 3)


@settings(max_examples=200, deadline=None)
@given(triple=index_pairs)
def test_memo_key_is_the_flat_sorted_pairs_under_every_permutation(triple):
    keys = {MemoCache.key(tuple(triple[i][0] for i in sigma),
                          tuple(triple[i][1] for i in sigma))
            for sigma in itertools.permutations(range(3))}
    assert keys == {tuple(x for pair in sorted(triple) for x in pair)}


@settings(max_examples=300, deadline=None)
@given(triple=index_pairs, which=st.integers(0, 5), bump=st.integers(0, 3000),
       sigma=st.permutations(range(3)))
def test_memo_key_separates_pairs_that_are_no_permutation(triple, which, bump, sigma):
    # bump one index, or (bump = 0) trade the betas of two pairs, then permute
    changed = [list(pair) for pair in triple]
    i, j = which // 2, which % 2
    if bump:
        changed[i][j] += bump
    else:
        k = (i + 1) % 3
        changed[i][1], changed[k][1] = changed[k][1], changed[i][1]
    other = [tuple(changed[m]) for m in sigma]
    same = sorted(triple) == sorted(other)
    assert same == (MemoCache.key(*zip(*triple)) == MemoCache.key(*zip(*other)))


@settings(max_examples=200, deadline=None)
@given(alpha=st.tuples(*[st.integers(0, 3000)] * 3),
       beta=st.tuples(*[st.integers(0, 3000)] * 3))
def test_finite_index_matches_its_definition(alpha, beta):
    assert is_finite_index(alpha, beta) == (
        max(a + b for a, b in zip(alpha, beta)) <= sum(alpha) + 1)


@settings(max_examples=60, deadline=None)
@given(alpha=indices(6), beta=indices(4))
def test_stored_means_are_normalised_fractions(alpha, beta):
    cache = MemoCache()
    integral_mean(alpha, beta, cache)
    for value in cache.table.values():
        if value.infinite:
            continue
        for q in (value.q0, value.q1):
            assert type(q) is Fraction
            assert q.denominator > 0
            assert math.gcd(q.numerator, q.denominator) == 1
        rebuilt = ExactValue(Fraction(value.q0), Fraction(value.q1))
        assert value == rebuilt and hash(value) == hash(rebuilt)


def test_oracle_spot_checks():
    rng = random.Random(12)
    checked = 0
    while checked < 15:
        alpha = tuple(rng.randint(0, 4) for _ in range(3))
        beta = tuple(rng.randint(0, 3) for _ in range(3))
        if not is_finite_index(alpha, beta):
            assert integral_mean(alpha, beta) == INFINITE
            continue
        exact = integral_mean(alpha, beta).to_float()
        assert exact == pytest.approx(duffy_mean(alpha, beta), rel=1e-10)
        checked += 1


def test_integral_mean_combo():
    lam0, lam1 = RatCombo.lam(0), RatCombo.lam(1)
    assert integral_mean_combo(6 * (lam0 * lam1)) == ExactValue(F(1, 2))
    assert integral_mean_combo(RatCombo()) == ExactValue(0)
    f = RatCombo.monomial((0, 0, 0), (0, 0, 1)) - 2 * RatCombo.one()
    assert integral_mean_combo(f) == ExactValue(0)
    with pytest.raises(InfiniteTermError):
        integral_mean_combo(RatCombo.monomial((0, 0, 0), (0, 0, 2)))


def test_gauss_legendre_nodes():
    x, w = gauss_legendre_01(2)
    ref = 0.5 + np.array([-1, 1]) / (2 * np.sqrt(3.0))
    assert np.allclose(x, ref, atol=1e-15)
    assert np.allclose(w, [0.5, 0.5])
    x, w = gauss_legendre_01(5)
    assert abs(w.sum() - 1.0) < 1e-14
    # degree-9 exactness
    assert np.dot(w, x ** 9) == pytest.approx(1.0 / 10.0, rel=1e-14)
    with pytest.raises(ValueError):
        gauss_legendre_01(0)


def test_gauss_rule_geometry():
    for n in (1, 2, 3, 7):
        bary, w2 = gauss_points(n)
        assert bary.shape == (n * n, 3) and w2.shape == (n * n,)
        assert w2.sum() == pytest.approx(1.0, rel=1e-13)
        assert np.all(bary > 0) and np.allclose(bary.sum(axis=1), 1.0)
        assert not bary.flags.writeable and not w2.flags.writeable
        assert gauss_points(n)[0] is bary


def test_gauss_rule_polynomial_exactness():
    # n = 3 integrates P4 exactly: lam1^4 has mean 1/15
    bary, w2 = gauss_points(3)
    assert w2 @ bary[:, 1] ** 4 == pytest.approx(1.0 / 15.0, rel=1e-14)


def test_gauss_rule_not_exact_on_bubble():
    exact = integral_mean((1, 2, 2), (0, 1, 1)).to_float()
    bary, w2 = gauss_points(2)
    approx = w2 @ combo_values([bubble(0)], bary)[:, 0]
    # the integrals over the reference triangle (area 1/2) differ by > 1e-7
    assert 0.5 * abs(approx - exact) > 1e-7


def test_finiteness_guard_matches_characterization():
    for alpha in itertools.product(range(4), repeat=3):
        for beta in itertools.product(range(4), repeat=3):
            assert integral_mean(alpha, beta).infinite == (
                not is_finite_index(alpha, beta))
