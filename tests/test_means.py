"""Integral means: route agreement, monotonicity, Hausdorff-Young margins."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp, mpf, mpc

from dunkldyn.construct import build_hypercyclic, poly_to_series
from dunkldyn.dunkl import DunklWeights, apply_dunkl
from dunkldyn.dynamics import thm3b_bound_check, windowed_c_star
from dunkldyn.growth import RateEnvelope, standard_r_grid
from dunkldyn.means import (
    _BLOCK_ELEMENTS,
    P_INF,
    MeanParams,
    _CircleTable,
    _quadrature_mean,
    circle_max,
    conjugate_exponent,
    hausdorff_young_check,
    mean_p,
    means_on_grid,
)
from dunkldyn.series import TruncatedSeries, exp_truncation

# an overflow or invalid value in the float64 exponents of the circle kernel
# fails a test here instead of turning into an inf or nan sample
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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
    shift, samples, _ = _CircleTable(f, parseval=False).scaled_circle(mpf(r), m)
    return _quadrature_mean(shift, samples, mpf(2)).value


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


# ---------------------------------------------------------------------------
# the per-series circle kernel against independent references


def _scaled_circle_per_coefficient(f, r, m):
    """Circle samples with ln|c_n| recomputed for every coefficient at this r."""
    ln_r = mpmath.ln(r)
    logs = [(n, c, mpmath.ln(abs(c)) + n * ln_r) for n, c in f.items()]
    shift = max(lv for _, _, lv in logs)
    coeffs = np.zeros(m, dtype=np.complex128)
    for n, c, lv in logs:
        rel = float(lv - shift)
        if rel >= -700.0:
            coeffs[n] = math.exp(rel) * complex(c / abs(c))
    return shift, np.fft.ifft(coeffs) * m


def _sparse_high_degree():
    # magnitudes spread over thousands of nats, so the 700-nat cut is active
    degrees = (0, 3, 17, 64, 301, 777, 1024, 1500, 1999, 2047)
    coeffs = {}
    for i, n in enumerate(degrees):
        phase = mpmath.expj(mpf(i) * 7 / 5)
        coeffs[n] = phase * mpmath.exp(-mpmath.loggamma(n + 1) * mpf(i + 2) / 10)
    return TruncatedSeries(coeffs, trunc_degree=2048)


_ORACLE_RADII = [mpf(10) ** (mpf(k) / 2) for k in range(-4, 11)]  # 0.01 .. 1e5


def _dense_high_degree():
    # every degree up to 2400 present, magnitudes ~ 1/sqrt(n!) and unit phases
    coeffs = {n: mpmath.expj(mpf(n) / 7) * mpmath.exp(-mpmath.loggamma(n + 1) / 2)
              for n in range(2401)}
    return TruncatedSeries(coeffs, trunc_degree=2400)


_SERIES = {"sparse": _sparse_high_degree, "exp": lambda: exp_truncation(256),
           "dense": _dense_high_degree}


@pytest.mark.parametrize("name", list(_SERIES))
def test_kernel_samples_equal_per_coefficient_reference(name):
    # equal to float64 accuracy: the samples, rescaled to the reference
    # shift, stay within 1e-14 of the largest sample (plain float64
    # exponents miss by ~4e-14 on exp(256)), and the means within 1e-14
    f = _SERIES[name]()
    table = _CircleTable(f, parseval=False)
    ps = (mpf(1), mpf("1.5"), mpf(3))
    m = MeanParams(1).points_for(f)
    got = {p: means_on_grid(f, _ORACLE_RADII, MeanParams(p)) for p in ps}
    for i, r in enumerate(_ORACLE_RADII):
        shift, samples = _scaled_circle_per_coefficient(f, r, m)
        k_shift, k_samples, _ = table.scaled_circle(r, m)
        rescaled = k_samples * float(mpmath.exp(k_shift - shift))
        assert np.max(np.abs(rescaled - samples)) <= 1e-14 * np.max(np.abs(samples))
        for p in ps:
            want = _quadrature_mean(shift, samples, p).value
            assert abs(got[p][i].value - want) <= want * mpf("1e-14")


def _mpf_peak(f, r, theta, half_width):
    """max |f(r e^{it})| over |t - theta| <= half_width by golden section in mpf."""
    items = list(f.items())

    def value(t):
        z = r * mpmath.expj(t)
        return abs(mpmath.fsum(c * z**n for n, c in items))

    a, b = theta - half_width, theta + half_width
    g = (mpmath.sqrt(5) - 1) / 2
    x1, x2 = b - g * (b - a), a + g * (b - a)
    f1, f2 = value(x1), value(x2)
    for _ in range(60):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + g * (b - a)
            f2 = value(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - g * (b - a)
            f1 = value(x1)
    return max(f1, f2)


def _mpf_global_max(f, r, m):
    """max |f| on |z| = r in mpf: the 4 highest local maxima of a 16m-point scan, refined."""
    fine_m = 16 * m
    _, fine = _scaled_circle_per_coefficient(f, r, fine_m)
    mags = np.abs(fine)
    peaks = np.flatnonzero((mags >= np.roll(mags, 1)) & (mags >= np.roll(mags, -1)))
    peaks = peaks[np.argsort(mags[peaks])[-4:]]
    return max(_mpf_peak(f, r, 2 * mp.pi * j / fine_m, 2 * mp.pi / fine_m) for j in peaks)


def test_max_route_matches_mpf_maximum():
    # the kernel refines the highest peaks of its samples: within 1e-14 of
    # the global mpf maximum
    rng = np.random.default_rng(5)
    poly = TruncatedSeries(
        {n: mpc(*rng.uniform(-1, 1, 2)) for n in range(0, 40, 3)}, trunc_degree=64)
    # comparable terms near degree 2048: |f| hinges on phases n t with n t ~ 1e4
    high = TruncatedSeries({n: mpc(*rng.uniform(-1, 1, 2)) for n in range(2000, 2048, 4)},
                           trunc_degree=2048)
    cases = [(poly, (mpf("0.3"), mpf(1), mpf(7))),
             (_sparse_high_degree(), (mpf("0.5"), mpf(30), mpf(1000), mpf(100000))),
             (high, (mpf(1), mpf(2)))]
    for f, radii in cases:
        params = MeanParams(P_INF)
        m = params.points_for(f)
        for r, res in zip(radii, means_on_grid(f, radii, params)):
            peak = _mpf_global_max(f, r, m)
            assert abs(res.value - peak) <= peak * mpf("1e-14")


def test_max_route_resolves_near_tied_peaks():
    # at r = 0.5, c_0 + c_3 z^3 gives three peaks that only a ~1e-11 z^17
    # term tells apart; the best sample's own peak is not the highest one
    f = _sparse_high_degree()
    r = mpf("0.5")
    m = MeanParams(P_INF).points_for(f)
    _, samples = _scaled_circle_per_coefficient(f, r, m)
    j = int(np.argmax(np.abs(samples)))
    best_sample_peak = _mpf_peak(f, r, 2 * mp.pi * j / m, 2 * mp.pi / m)
    peak = _mpf_global_max(f, r, m)
    assert best_sample_peak < peak * (1 - mpf("1e-12"))
    got = mean_p(f, r, MeanParams(P_INF)).value
    assert abs(got - peak) <= peak * mpf("1e-14")


def test_grid_equals_per_radius_mean_p():
    f = _sparse_high_degree()
    radii = [mpf(0), mpf("0.02"), mpf(1), mpf(45), mpf(3000)]
    for p in (mpf(1), mpf("1.5"), mpf(2), mpf(64), P_INF):
        params = MeanParams(p)
        assert means_on_grid(f, radii, params) == [mean_p(f, r, params) for r in radii]


def test_batched_blocks_equal_per_radius_mean_p():
    # a grid spanning two inverse-FFT blocks, with r = 0 inside the first
    f = _sparse_high_degree()
    m = MeanParams(1).points_for(f)
    radii = [mpf(10) ** (mpf(k) / 4) for k in range(-8, 4)]
    radii.insert(3, mpf(0))
    assert _BLOCK_ELEMENTS // m < len(radii) - 1 < 2 * (_BLOCK_ELEMENTS // m)
    for p in (mpf(1), mpf("1.5"), P_INF):
        params = MeanParams(p)
        assert means_on_grid(f, radii, params) == [mean_p(f, r, params) for r in radii]
    for r in radii[4:]:
        shift, samples = _scaled_circle_per_coefficient(f, r, m)
        want = mpmath.exp(shift) * float(np.max(np.abs(samples)))
        assert abs(circle_max(f, r, m) - want) <= want * mpf("1e-14")


@pytest.mark.parametrize("alpha_s", ["0", "0.5"])
def test_windowed_ladder_equals_per_window_check(alpha_s):
    w = DunklWeights(mpf(alpha_s), 128)
    f = exp_truncation(96, trunc_degree=128)
    grid = standard_r_grid(mpf("0.1"), mpf(60), 24)
    r_maxes = (mpf(8), mpf(20), mpf(40), mpf(60))
    ladder = windowed_c_star(f, w, grid, r_maxes)
    want = []
    for r_max in r_maxes:
        N = min(max(0, int(mpmath.floor(r_max - w.alpha - 1))), f.trunc_degree)
        want.append(thm3b_bound_check(f, w, [r for r in grid if r <= r_max], N).c_star)
    assert ladder == tuple(want)


_P_LADDER = (mpf(1), mpf("1.5"), mpf(2), mpf(8), mpf(64), mpf(1000), P_INF)


@given(
    st.dictionaries(st.integers(0, 20),
                    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                    min_size=1, max_size=6),
    st.sampled_from(["0.05", "0.4", "1", "2.5", "9", "40"]),
)
@settings(deadline=None, max_examples=40)
def test_means_nondecreasing_in_p(coeffs, r_s):
    f = TruncatedSeries({n: mpc(a, b) for n, (a, b) in coeffs.items()}, trunc_degree=24)
    assume(f.degree() > 0)
    r = mpf(r_s)
    vals = [mean_p(f, r, MeanParams(p)).value for p in _P_LADDER]
    slack = 1 + mpf("1e-12")
    for a, b in zip(vals, vals[1:]):
        assert a <= b * slack
    assert vals[5] <= vals[6] * slack  # M_1000 <= M_inf
    assert abs(_quadrature_p2(f, r) - vals[2]) <= vals[2] * mpf("1e-12")


class TestCircleMax:
    """circle_max against the working-precision sampled sup of the series module."""

    @pytest.fixture(scope="class")
    def hc_residuals(self):
        # the residuals Lambda^{m_k} f - Q_k that verify_orbit_hits measures
        w = DunklWeights(0, 4096)
        f, plan = build_hypercyclic(w, RateEnvelope.log_growth(), 12)
        return [
            apply_dunkl(f, w, m_k).add(poly_to_series(q, f.trunc_degree).scale(-1))
            for q, m_k in zip(plan.targets, plan.positions)
        ]

    def test_hc_residuals_match_sup_on_disk(self, hc_residuals):
        assert len(hc_residuals) == 12
        for res in hc_residuals:
            want = res.sup_on_disk(mpf(2), 512)
            assert abs(circle_max(res, 2, 512) - want) <= want * mpf("1e-14")

    @pytest.mark.parametrize("m", [1, 5, 16])
    def test_degrees_colliding_mod_m_are_summed(self, m):
        # every sample of z^3 + z^(3+m) is r^3 (1 + r^m) times a unit
        r = mpf("1.1")
        f = TruncatedSeries({3: 1, 3 + m: 1}, trunc_degree=64)
        want = r**3 + r ** (3 + m)
        assert abs(circle_max(f, r, m) - want) <= want * mpf("1e-15")
        assert abs(f.sup_on_disk(r, m) - want) <= want * mpf("1e-60")

    def test_degree_above_m_matches_sup_on_disk(self):
        f = TruncatedSeries(
            {n: mpmath.expj(mpf(n) / 3) / mpmath.factorial(n % 7) for n in range(0, 41, 3)},
            trunc_degree=64,
        )
        for r in (mpf("0.5"), mpf(1), mpf(3)):
            want = f.sup_on_disk(r, 16)
            assert abs(circle_max(f, r, 16) - want) <= want * mpf("1e-14")

    def test_zero_series_and_zero_radius(self):
        assert circle_max(TruncatedSeries.zero(16), 2, 8) == 0
        f = TruncatedSeries({0: mpc(3, 4), 5: 1}, trunc_degree=16)
        assert circle_max(f, 0, 8) == 5

    def test_rejects_bad_arguments(self):
        f = TruncatedSeries({1: 1}, trunc_degree=4)
        with pytest.raises(ValueError):
            circle_max(f, 1, 0)
        with pytest.raises(ValueError):
            circle_max(f, -1, 8)
