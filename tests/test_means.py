"""Integral means: route agreement, monotonicity, Hausdorff-Young margins."""

import warnings

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, mpc

from dunkldyn.means import (
    P_INF,
    MeanParams,
    conjugate_exponent,
    hausdorff_young_check,
    mean_p,
)
from dunkldyn.series import TruncatedSeries, exp_truncation


def test_conjugate_exponent():
    assert conjugate_exponent(1) == P_INF
    assert conjugate_exponent(P_INF) == 1
    assert conjugate_exponent(2) == 2
    assert abs(conjugate_exponent(mpf("1.25")) - 5) < mpf("1e-60")


def test_mean_params_validation():
    with pytest.raises(ValueError):
        MeanParams(mpf("0.5"))
    with pytest.raises(ValueError):
        MeanParams(2, q=3)  # not conjugate
    with pytest.raises(ValueError):
        MeanParams(2, quad_points=4)
    assert MeanParams(1).q == P_INF


def test_parseval_exact_small_case():
    # f = 1 + 2z at r: M_2 = sqrt(1 + 4 r^2)
    f = TruncatedSeries({0: 1, 1: 2}, trunc_degree=8)
    r = mpf("1.5")
    got = mean_p(f, r, MeanParams(2)).value
    want = mpmath.sqrt(1 + 4 * r**2)
    assert abs(got - want) < want * mpf(2) ** -240


def test_quadrature_agrees_with_parseval_at_p2():
    # independent route check: force the quadrature path with q=2
    f = TruncatedSeries({0: 1, 3: -2, 7: mpc(0, 1), 12: mpf("0.125")}, trunc_degree=16)
    for r in (mpf("0.5"), mpf(1), mpf(4)):
        parseval = mean_p(f, r, MeanParams(2)).value
        quad = _quadrature_p2(f, r)
        assert abs(quad - parseval) <= parseval * mpf("1e-12")


def _quadrature_p2(f, r, m=4096):
    from dunkldyn.means import _quadrature_mean

    return _quadrature_mean(f, r, mpf(2), m).value


def test_max_route_on_positive_coefficients():
    # all-positive coefficients put the max at theta = 0: M_inf = f(r)
    f = TruncatedSeries({0: 1, 2: 3, 5: mpf("0.5")}, trunc_degree=8)
    r = mpf("1.25")
    got = mean_p(f, r, MeanParams(P_INF)).value
    want = f.evaluate(r).real
    assert abs(got - want) <= want * mpf("1e-12")


def test_constant_and_zero_radius():
    f = TruncatedSeries({0: -3}, trunc_degree=4)
    assert mean_p(f, mpf(2), MeanParams(mpf("1.5"))).value == 3
    g = TruncatedSeries({0: 2, 3: 1}, trunc_degree=4)
    assert mean_p(g, mpf(0), MeanParams(2)).value == 2


def test_mean_monotone_in_p():
    # M_1 <= M_1.5 <= M_2 <= M_inf at fixed r
    f = TruncatedSeries({0: 1, 1: -1, 4: 2, 9: mpf("0.01")}, trunc_degree=16)
    r = mpf(2)
    vals = [mean_p(f, r, MeanParams(p)).value
            for p in (mpf(1), mpf("1.5"), mpf(2), P_INF)]
    slack = mpf("1e-10")
    for a, b in zip(vals, vals[1:]):
        assert a <= b * (1 + slack)


@given(
    st.dictionaries(st.integers(0, 24), st.integers(-8, 8), min_size=1, max_size=8),
    st.sampled_from(["0.5", "1", "5"]),
)
@settings(deadline=None, max_examples=30)
def test_mean_dominates_coefficient_bound(coeffs, r_s):
    # M_p(f, r) >= max_n |c_n| r^n for every p >= 1 (used to justify the
    # scaled-float64 path); checked on the quadrature route p = 1.5
    mp.prec = 256
    f = TruncatedSeries(coeffs, trunc_degree=24)
    if f.is_zero():
        return
    r = mpf(r_s)
    bound = max(abs(c) * r**n for n, c in f.items())
    got = mean_p(f, r, MeanParams(mpf("1.5"))).value
    assert got >= bound * (1 - mpf("1e-9"))


def test_large_p_quadrature_stays_finite():
    # |f|^400 of the raw samples overflows float64; M_2 <= M_400 <= M_inf
    f = exp_truncation(40, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = mean_p(f, 30, MeanParams(400))
    assert mpmath.isfinite(res.value) and mpmath.isfinite(res.richardson_err)
    m2 = mean_p(f, 30, MeanParams(2)).value
    m_inf = mean_p(f, 30, MeanParams(P_INF)).value
    assert m2 <= res.value <= m_inf * (1 + mpf("1e-12"))


def test_richardson_error_small_for_smooth_integrand():
    f = exp_truncation(64, trunc_degree=64)
    res = mean_p(f, mpf(3), MeanParams(mpf("1.25")))
    assert res.richardson_err <= res.value * mpf("1e-12")


class TestHausdorffYoung:
    def test_p2_equality(self):
        # at p = 2 both sides are the same Parseval quantity
        f = TruncatedSeries({0: 1, 2: -3, 5: 2}, trunc_degree=8)
        res = hausdorff_young_check(f, mpf("1.5"), MeanParams(2))
        assert abs(res.margin) <= res.rhs * mpf("1e-12")

    def test_margin_nonnegative_for_sample_polys(self):
        polys = [
            TruncatedSeries({0: 1, 1: 1}, trunc_degree=8),
            TruncatedSeries({0: -2, 3: 1, 4: mpf("0.5")}, trunc_degree=8),
            TruncatedSeries({1: 1, 7: -1}, trunc_degree=8),
        ]
        for p in (mpf("1.25"), mpf("1.5")):
            for f in polys:
                for r in (mpf("0.5"), mpf(1), mpf(5)):
                    res = hausdorff_young_check(f, r, MeanParams(p))
                    assert res.margin >= -res.rhs * mpf("1e-6")

    def test_monomial_equality_any_p(self):
        # single term: lhs = rhs = |c| r^n exactly, margin ~ 0
        f = TruncatedSeries.monomial(4, -3, trunc_degree=8)
        for p in (mpf("1.25"), mpf(2)):
            res = hausdorff_young_check(f, mpf(2), MeanParams(p))
            assert abs(res.margin) <= res.rhs * mpf("1e-9")
