import random
from fractions import Fraction

import numpy as np
import pytest

from felib import eval_float, evaluate
from ratfem.ratfun import (RatCombo, SingularEvaluationError, bubble,
                           combo_values, gradient_values)

F = Fraction


def rand_combo(rng, terms=3, amax=3, bmax=2):
    out = RatCombo()
    for _ in range(terms):
        alpha = tuple(rng.randint(0, amax) for _ in range(3))
        beta = tuple(rng.randint(0, bmax) for _ in range(3))
        out = out + RatCombo.monomial(alpha, beta, F(rng.randint(-5, 5), rng.randint(1, 4)))
    return out


def test_multiply_examples():
    a = RatCombo.monomial((1, 0, 0))
    b = RatCombo.monomial((0, 1, 0))
    assert a * b == RatCombo.monomial((1, 1, 0))
    assert not (RatCombo() * a).terms
    assert not ((a - a) * b).terms


def test_multiply_commutative_associative():
    rng = random.Random(5)
    for _ in range(25):
        f, g, h = (rand_combo(rng) for _ in range(3))
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)


def test_combos_hash_by_value_and_refuse_other_operands():
    a, b = RatCombo.lam(0), bubble(1)
    assert len({a * b, b * a}) == 1
    with pytest.raises(TypeError):
        a + 1
    with pytest.raises(TypeError):
        a - 1
    assert (a == 1) is False


def test_diff_examples():
    lam0 = RatCombo.lam(0)
    assert lam0.diff(0) == RatCombo.one()
    assert not RatCombo.one().diff(1).terms
    # quotient rule: the denominator term carries a plus sign
    f = RatCombo.monomial((2, 0, 0), (1, 0, 0))
    expected = (2 * RatCombo.monomial((1, 0, 0), (1, 0, 0))
                + RatCombo.monomial((2, 0, 0), (2, 0, 0)))
    assert f.diff(0) == expected


def test_diff_against_finite_differences():
    # d/dlam0 of lam0/(1-lam0) must be 1/(1-lam0)^2
    f = RatCombo.monomial((1, 0, 0), (1, 0, 0))
    df = f.diff(0)
    t = 0.37
    val = eval_float(df, (t, 0.5 - t / 2, 0.5 - t / 2))
    assert val == pytest.approx(1.0 / (1.0 - t) ** 2, rel=1e-12)
    # bubble partials against central differences (lam treated independently)
    b = bubble(0)
    h = 1e-6
    point = [0.3, 0.32, 0.38]
    for j in range(3):
        up = list(point); up[j] += h
        dn = list(point); dn[j] -= h
        fd = (eval_float(b, tuple(up)) - eval_float(b, tuple(dn))) / (2 * h)
        assert eval_float(b.diff(j), tuple(point)) == pytest.approx(fd, rel=1e-7)


def test_leibniz_rule():
    rng = random.Random(9)
    for _ in range(25):
        f, g = rand_combo(rng), rand_combo(rng)
        for j in range(3):
            assert (f * g).diff(j) == f.diff(j) * g + f * g.diff(j)


def test_grad_and_hessian():
    lam0, lam1 = RatCombo.lam(0), RatCombo.lam(1)
    g = lam0.grad()
    assert g[0] == RatCombo.one() and not g[1].terms and not g[2].terms
    h = (lam0 * lam1).hessian()
    assert h[0][1] == RatCombo.one() and not h[0][0].terms
    rng = random.Random(3)
    for _ in range(10):
        f = rand_combo(rng)
        h = f.hessian()
        for i in range(3):
            for j in range(3):
                assert h[i][j] == h[j][i]


def test_bubble_hessian_against_finite_differences():
    # second derivatives of the rational bubble at interior points
    b = bubble(0)
    hess = b.hessian()
    h = 1e-4
    pt = (0.25, 0.35, 0.4)
    for i in range(3):
        for j in range(3):
            pp = list(pt); pp[i] += h; pp[j] += h
            pm = list(pt); pm[i] += h; pm[j] -= h
            mp = list(pt); mp[i] -= h; mp[j] += h
            mm = list(pt); mm[i] -= h; mm[j] -= h
            fd = (eval_float(b, tuple(pp)) - eval_float(b, tuple(pm))
                  - eval_float(b, tuple(mp)) + eval_float(b, tuple(mm))) / (4 * h * h)
            assert eval_float(hess[i][j], pt) == pytest.approx(fd, rel=1e-6, abs=1e-8)
    # entries reach denominator orders up to 3 in single indices
    beta_max = max(max(beta) for term in hess[1][1].terms for beta in [term[1]])
    assert beta_max >= 3


def test_partition_of_unity():
    rng = random.Random(1)
    one = RatCombo.lam(0) + RatCombo.lam(1) + RatCombo.lam(2)
    for _ in range(20):
        a = F(rng.randint(0, 10), 10)
        b = F(rng.randint(0, 10), 10) * (1 - a)
        pt = (a, b, 1 - a - b)
        assert evaluate(one, pt) == 1


def test_evaluate_examples():
    assert evaluate(bubble(0), (0, 1, 0)) == 0
    lam01 = RatCombo.lam(0) * RatCombo.lam(1)
    assert evaluate(lam01, (F(1, 2), F(1, 2), 0)) == F(1, 4)
    singular = RatCombo.monomial((0, 0, 0), (0, 0, 1))
    with pytest.raises(SingularEvaluationError):
        evaluate(singular, (0, 0, 1))
    with pytest.raises(ValueError):
        evaluate(lam01, (F(1, 2), F(1, 2), F(1, 2)))


def test_basis_evaluations_never_singular():
    # all downstream dof evaluations stay on the strict side of the vertex rule
    from ratfem.zienkiewicz import zienkiewicz_basis
    verts = [(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
    mids = [(F(0), F(1, 2), F(1, 2)), (F(1, 2), F(0), F(1, 2)),
            (F(1, 2), F(1, 2), F(0))]
    for b in zienkiewicz_basis():
        for pt in verts + mids:
            evaluate(b, pt)
            for j in range(3):
                evaluate(b.diff(j), pt)


def test_negative_multiindex_rejected():
    with pytest.raises(ValueError):
        RatCombo.monomial((-1, 0, 0))


@pytest.mark.parametrize("make", [lambda: RatCombo.one().scale(0.5),
                                  lambda: 0.1 * RatCombo.one(),
                                  lambda: RatCombo.one() * 0.1,
                                  lambda: RatCombo.monomial((1, 0, 0), coeff=0.5),
                                  lambda: RatCombo({((0, 0, 0), (0, 0, 0)): 0.0})])
def test_only_rationals_make_combos(make):
    # Fraction(0.1) would silently store 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        make()


def test_numpy_integers_scale_combos():
    lam0 = RatCombo.lam(0)
    three = RatCombo.monomial((1, 0, 0), coeff=3)
    assert np.int64(3) * lam0 == lam0 * np.int32(3) == three
    assert RatCombo.monomial((1, 0, 0), coeff=np.uint8(2)) == lam0.scale(2)


def _evaluation_points(seed=21, count=8):
    """Vertices, edge midpoints and seeded rational interior points."""
    from ratfem.fecore import MIDS, VERTS
    rng = random.Random(seed)
    interior = []
    for _ in range(count):
        a, b, c = (rng.randint(1, 40) for _ in range(3))
        interior.append((F(a, a + b + c), F(b, a + b + c), F(c, a + b + c)))
    return list(VERTS) + list(MIDS) + interior


def _outcome(evaluate):
    try:
        return float(evaluate())
    except SingularEvaluationError as exc:
        return str(exc)


def test_float_evaluators_follow_the_vertex_rule():
    # the 12 Zienkiewicz basis functions and their lam-gradients are finite
    # at the vertices: every singular-looking term vanishes there
    from ratfem.zienkiewicz import zienkiewicz_basis
    basis = zienkiewicz_basis()
    points = _evaluation_points()
    fpts = np.array(points, dtype=float)
    vals = combo_values(basis, fpts)
    grads = gradient_values(basis, fpts)
    assert np.all(np.isfinite(vals)) and np.all(np.isfinite(grads))
    for q, (pt, fpt) in enumerate(zip(points, map(tuple, fpts))):
        for r, b in enumerate(basis):
            exact = float(evaluate(b, pt))
            assert vals[q, r] == pytest.approx(eval_float(b, fpt), rel=1e-14)
            assert vals[q, r] == pytest.approx(exact, rel=1e-13, abs=1e-15)
            for k, g in enumerate(b.grad()):
                exact = float(evaluate(g, pt))
                assert grads[q, r, k] == pytest.approx(eval_float(g, fpt),
                                                       rel=1e-14)
                assert grads[q, r, k] == pytest.approx(exact, rel=1e-13,
                                                       abs=1e-15)


def test_float_and_exact_evaluation_refuse_the_same_terms():
    # second lam-derivatives of the bubbles have no limit at some vertices
    from ratfem.zienkiewicz import zienkiewicz_basis
    funcs = [h for b in zienkiewicz_basis() for row in b.hessian() for h in row]
    funcs.append(RatCombo.monomial((1, 0, 0), (0, 1, 0)))
    refused = 0
    for pt in _evaluation_points(count=3):
        fpt = tuple(float(x) for x in pt)
        for f in funcs:
            exact = _outcome(lambda: evaluate(f, pt))
            single = _outcome(lambda: eval_float(f, fpt))
            batch = _outcome(lambda: combo_values([f], np.array([fpt]))[0, 0])
            if isinstance(exact, str):
                refused += 1
                assert single == batch == exact
            else:
                assert single == pytest.approx(exact, rel=1e-13, abs=1e-15)
                assert batch == pytest.approx(exact, rel=1e-13, abs=1e-15)
    assert refused > 0
