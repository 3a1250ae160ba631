"""Integral means: route agreement, monotonicity, Hausdorff-Young margins."""

import math
import random
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp, mpf, mpc
from mpmath.libmp import mpc_abs, mpc_div_mpf, mpc_to_complex, round_nearest

from dunkldyn.construct import build_frequently_hypercyclic, build_hypercyclic, poly_to_series
from dunkldyn.dunkl import DunklWeights, apply_dunkl
from dunkldyn.dynamics import thm3b_bound_check, windowed_c_star
from dunkldyn.growth import RateEnvelope, standard_r_grid
from dunkldyn.means import (
    _BLOCK_ELEMENTS,
    P_INF,
    MeanParams,
    _CircleTable,
    _band_local_means,
    _band_points,
    _circle_rows,
    _estimate_log_abs,
    _float_ln,
    _has_large_factor,
    _max_means,
    _quadrature_floats,
    _quadrature_means,
    conjugate_exponent,
    hausdorff_young_on_grid,
    m1_log_bounds,
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
    assert MeanParams(1).q == P_INF


def test_parseval_exact_small_case():
    # f = 1 + 2z at r: M_2 = sqrt(1 + 4 r^2)
    f = TruncatedSeries({0: 1, 1: 2}, trunc_degree=8)
    r = mpf("1.5")
    got = means_on_grid(f, [r], MeanParams(2))[0].value
    want = mpmath.sqrt(1 + 4 * r**2)
    assert abs(got - want) < want * mpf(2) ** -240


@pytest.mark.parametrize("name", ["fhc", "complex"])
def test_parseval_rows_equal_mpf_operators(name):
    # the raw-tuple row equals sqrt(fsum(|c_n|**2 * r**(2n))) over the kept
    # terms, as the mpf operators round it, bit for bit
    if name == "fhc":
        f, radii = _band_case("fhc")
    else:
        rng = random.Random(7)
        f = TruncatedSeries({n: mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) / (1 + n) ** 3
                             for n in rng.sample(range(400), 80)}, trunc_degree=400)
        radii = [mpf(r) for r in ("0.01", "0.5", "1", "3.7", "40")]
    table = _CircleTable(f, parseval=True)
    items = list(f.items())
    width = (mp.prec + 64) * math.log(2.0) / 2 + 1.0
    for r in radii:
        approx = table.log_abs_f + table.degrees * _float_ln(r)
        kept = np.flatnonzero(approx >= approx.max() - width)
        want = mpmath.sqrt(mpmath.fsum(abs(items[i][1]) ** 2 * r ** (2 * items[i][0]) for i in kept))
        assert table.parseval(r)._mpf_ == want._mpf_


def test_quadrature_agrees_with_parseval_at_p2():
    # independent route check: force the quadrature path with q=2
    f = TruncatedSeries({0: 1, 3: -2, 7: mpc(0, 1), 12: mpf("0.125")}, trunc_degree=16)
    for r in (mpf("0.5"), mpf(1), mpf(4)):
        parseval = means_on_grid(f, [r], MeanParams(2))[0].value
        quad = _quadrature_p2(f, r)
        assert abs(quad - parseval) <= parseval * mpf("1e-12")


def _one_row(f, r, m):
    """(shifts, samples, band): the float64 kernel's one-row block at radius r."""
    shifts, band = _CircleTable(f, parseval=False).block_terms([mpf(r)])
    return shifts, _circle_rows(1, m, *band), band


def _quadrature_p2(f, r, m=4096):
    shifts, samples, _ = _one_row(f, r, m)
    return _quadrature_means(shifts, samples, mpf(2))[0].value


def _sampled_max(f, r, m):
    """max_j |f(r e^{2 pi i j / m})| from the float64 kernel: e^shift times the row's maximum."""
    shifts, samples, _ = _one_row(f, r, m)
    return mpmath.exp(shifts[0]) * float(np.max(np.abs(samples[0])))


def _quadrature_mean(shift, samples, p):
    """The per-row trapezoid M_p and m-vs-m/2 discrepancy: the oracle of the block reducer."""
    mags = np.abs(samples)
    top = float(np.max(mags))
    mags /= top
    p_f = float(p)
    fine = top * float(np.mean(mags**p_f) ** (1.0 / p_f))
    coarse = top * float(np.mean(mags[::2] ** p_f) ** (1.0 / p_f))
    scale = mpmath.exp(shift)
    return mpf(fine) * scale, abs(mpf(fine - coarse)) * scale


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _refine_max(degrees, coeffs, half_width):
    """Golden-section maximization of |sum_n coeffs_n e^{i n t}| over |t| <= half_width,
    one scalar evaluation at a time: the oracle of the block reducer's lockstep passes."""

    def value(t):
        return abs(np.dot(coeffs, np.exp(1j * t * degrees)))

    a, b = -half_width, half_width
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = value(x1)
    f2 = value(x2)
    for _ in range(48):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = value(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = value(x1)
    return max(f1, f2)


def _max_mean(samples, band):
    """The per-row p = inf value in float64, relative to the row's shift: the three
    highest peaks refined highest first, each skipped when its climb bound cannot
    pass the running best."""
    m = len(samples)
    mags = np.abs(samples)
    peaks = np.flatnonzero((mags >= np.roll(mags, 1)) & (mags >= np.roll(mags, -1)))
    peaks = peaks[np.argsort(-mags[peaks], kind="stable")][:3]
    degrees, scaled = band
    half_width = 2.0 * math.pi / m
    size = np.abs(scaled)
    climb = half_width * float(np.dot(np.abs(degrees - degrees[np.argmax(size)]), size))
    best = float(np.max(mags))
    for j in peaks:
        if mags[j] + climb > best:
            rotated = scaled * np.exp(2j * np.pi * ((int(j) * degrees) % m) / m)
            best = max(best, _refine_max(degrees, rotated, half_width))
    return best


def test_max_route_on_positive_coefficients():
    # all-positive coefficients put the max at theta = 0: M_inf = f(r)
    f = TruncatedSeries({0: 1, 2: 3, 5: mpf("0.5")}, trunc_degree=8)
    r = mpf("1.25")
    got = means_on_grid(f, [r], MeanParams(P_INF))[0].value
    want = f.evaluate(r).real
    assert abs(got - want) <= want * mpf("1e-12")


def test_constant_and_zero_radius():
    f = TruncatedSeries({0: -3}, trunc_degree=4)
    assert means_on_grid(f, [mpf(2)], MeanParams(mpf("1.5")))[0].value == 3
    g = TruncatedSeries({0: 2, 3: 1}, trunc_degree=4)
    assert means_on_grid(g, [mpf(0)], MeanParams(2))[0].value == 2


def test_mean_monotone_in_p():
    # M_1 <= M_1.5 <= M_2 <= M_inf at fixed r
    f = TruncatedSeries({0: 1, 1: -1, 4: 2, 9: mpf("0.01")}, trunc_degree=16)
    r = mpf(2)
    vals = [means_on_grid(f, [r], MeanParams(p))[0].value
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
    if f.degree() == -1:
        return
    r = mpf(r_s)
    bound = max(abs(c) * r**n for n, c in f.items())
    got = means_on_grid(f, [r], MeanParams(mpf("1.5")))[0].value
    assert got >= bound * (1 - mpf("1e-9"))


@given(
    st.dictionaries(st.integers(0, 40),
                    st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-30, 30)),
                    min_size=1, max_size=6),
    st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=6),
)
@settings(deadline=None, max_examples=30)
def test_m1_log_bounds_bracket_the_sampled_mean(coeffs, radii):
    # the coefficient bound and Parseval bracket the trapezoid M_1 up to float64 rounding
    mp.prec = 256
    f = TruncatedSeries({n: mpc(a, b) * mpf(10) ** e for n, (a, b, e) in coeffs.items()},
                        trunc_degree=40)
    assume(f.degree() != -1)
    lower, upper = m1_log_bounds(f, radii)
    ones, twos = means_on_grid(f, radii, MeanParams(1)), means_on_grid(f, radii, MeanParams(2))
    for r, lo, hi, m1, m2 in zip(radii, lower, upper, ones, twos):
        r = mpf(r)
        top = float(mpmath.ln(max(abs(c) * r**n for n, c in f.items())))
        assert lo == pytest.approx(top, rel=1e-13, abs=1e-11)
        assert hi == pytest.approx(float(mpmath.ln(m2.value)), rel=1e-13, abs=1e-11)
        assert lo - 1e-9 <= float(mpmath.ln(m1.value)) <= hi + 1e-9


def test_large_p_quadrature_stays_finite():
    # |f|^400 of the raw samples overflows float64; M_2 <= M_400 <= M_inf
    f = exp_truncation(40, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = means_on_grid(f, [30], MeanParams(400))[0]
    assert mpmath.isfinite(res.value) and mpmath.isfinite(res.richardson_err)
    m2 = means_on_grid(f, [30], MeanParams(2))[0].value
    m_inf = means_on_grid(f, [30], MeanParams(P_INF))[0].value
    assert m2 <= res.value <= m_inf * (1 + mpf("1e-12"))


def test_richardson_error_small_for_smooth_integrand():
    f = exp_truncation(64, trunc_degree=64)
    res = means_on_grid(f, [mpf(3)], MeanParams(mpf("1.25")))[0]
    assert res.richardson_err <= res.value * mpf("1e-12")


class TestHausdorffYoung:
    def test_p2_equality(self):
        # at p = 2 both sides are the same Parseval quantity
        f = TruncatedSeries({0: 1, 2: -3, 5: 2}, trunc_degree=8)
        res = hausdorff_young_on_grid(f, [mpf("1.5")], MeanParams(2))[0]
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
                    res = hausdorff_young_on_grid(f, [r], MeanParams(p))[0]
                    assert res.margin >= -res.rhs * mpf("1e-6")

    def test_monomial_equality_any_p(self):
        # single term: lhs = rhs = |c| r^n exactly, margin ~ 0
        f = TruncatedSeries({4: -3}, trunc_degree=8)
        for p in (mpf("1.25"), mpf(2)):
            res = hausdorff_young_on_grid(f, [mpf(2)], MeanParams(p))[0]
            assert abs(res.margin) <= res.rhs * mpf("1e-9")

    @pytest.mark.parametrize("p_s", ["1.25", "1.5", "2"])
    def test_grid_equals_per_radius_check(self, p_s):
        # one means_on_grid call and one |c_n| list serve the radii; each
        # result must equal the check at its radius and the definition
        rng = random.Random(11)
        params = MeanParams(mpf(p_s))
        radii = [mpf("0.01"), mpf("0.5"), mpf(1), mpf(5), mpf(30), mpf(1000)]
        q = params.q
        for degree in (0, 1, 7, 64):
            f = TruncatedSeries({n: mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                 for n in range(degree + 1)}, trunc_degree=64)
            got = hausdorff_young_on_grid(f, radii, params)
            assert got == [hausdorff_young_on_grid(f, [r], params)[0] for r in radii]
            for r, res in zip(radii, got):
                lhs = mpmath.fsum((abs(c) * r**n) ** q for n, c in f.items()) ** (1 / q)
                rhs = means_on_grid(f, [r], params)[0].value
                assert res == (lhs, rhs, rhs - lhs)

    @pytest.mark.parametrize("p_s", ["1.25", "1.5", "1.7", "2"])
    def test_lhs_equals_mpf_operators(self, p_s):
        # the raw-tuple terms against the mpf expression they replace, bit for bit;
        # q = 5, 3 and 2 take the integer power, q = 17/7 the general one
        rng = random.Random(5)
        params = MeanParams(mpf(p_s))
        q = params.q
        radii = [mpf("0.01"), mpf("0.5"), mpf(3), mpf(1000)]
        f = TruncatedSeries({n: mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) * mpf(10) ** -n
                             for n in range(0, 90, 3)}, trunc_degree=90)
        want = [(mpmath.fsum((abs(c) * r**n) ** q for n, c in f.items()) ** (1 / q))._mpf_
                for r in radii]
        assert [res.lhs._mpf_ for res in hausdorff_young_on_grid(f, radii, params)] == want

    def test_grid_domain(self):
        f = TruncatedSeries({0: 1, 2: 1}, trunc_degree=8)
        with pytest.raises(ValueError):
            hausdorff_young_on_grid(f, [mpf(1)], MeanParams(P_INF))
        with pytest.raises(ValueError):
            hausdorff_young_on_grid(f, [mpf(1)], MeanParams(1))
        for r in (0, -1):
            with pytest.raises(ValueError):
                hausdorff_young_on_grid(f, [mpf(1), mpf(r)], MeanParams(mpf("1.5")))
            with pytest.raises(ValueError):
                hausdorff_young_on_grid(f, [mpf(r)], MeanParams(mpf("1.5")))


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
    ps = (mpf(1), mpf("1.5"), mpf(3))
    m = MeanParams(1).points_for(f)
    got = {p: means_on_grid(f, _ORACLE_RADII, MeanParams(p)) for p in ps}
    for i, r in enumerate(_ORACLE_RADII):
        shift, samples = _scaled_circle_per_coefficient(f, r, m)
        k_shifts, k_samples, _ = _one_row(f, r, m)
        rescaled = k_samples[0] * float(mpmath.exp(k_shifts[0] - shift))
        assert np.max(np.abs(rescaled - samples)) <= 1e-14 * np.max(np.abs(samples))
        for p in ps:
            want, _ = _quadrature_mean(shift, samples, p)
            assert abs(got[p][i].value - want) <= want * mpf("1e-14")


def _circle_table_fields_mpf(f):
    """The sampled routes' _CircleTable fields in mpf and mpc operators: the oracle of
    their raw-tuple build, which must equal it bit for bit."""
    items = list(f.items())
    mags = [abs(c) for _, c in items]
    log_abs = [mpmath.ln(a) for a in mags]
    log_abs_f = np.array([float(v) for v in log_abs])
    log_abs_lo = np.array([float(v - h) for v, h in zip(log_abs, log_abs_f)])
    phase = np.array([complex(c / a) for (_, c), a in zip(items, mags)])
    if all(c.imag == 0 for _, c in items):  # a real series keeps float64 phases
        phase = phase.real
    return [v._mpf_ for v in log_abs], log_abs_f, log_abs_lo, phase


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("name", list(_SERIES) + ["mixed"])
def test_circle_table_fields_equal_mpf_operators(name, bits):
    rng = random.Random(3)
    with mp.workprec(bits):
        if name == "mixed":  # real, imaginary, negative and tiny coefficients
            f = TruncatedSeries({0: -3, 1: mpc(0, 2), 2: mpc(-1, -1), 5: mpf(10) ** -300,
                                 9: mpc(rng.uniform(-1, 1), 1e-20)}, trunc_degree=16)
        else:
            f = _SERIES[name]()
        table = _CircleTable(f, parseval=False)
        log_abs, log_abs_f, log_abs_lo, phase = _circle_table_fields_mpf(f)
    assert table.log_abs == log_abs
    for got, want in ((table.log_abs_f, log_abs_f), (table.log_abs_lo, log_abs_lo),
                      (table.phase, phase)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("bits", [53, 64, 256])
def test_real_series_phases_equal_mpc_division(bits):
    # a real series' phases are float64 without the division, a complex one's
    # complex128 from it; both equal mpc_to_complex(mpc_div_mpf(c, |c|)).  The
    # coefficients are set at 300 bits, so at 53 bits |1 + 2^-53 + 2^-80| rounds
    # up and c / |c| rounds to 1 - 2^-53, not 1
    with mp.workprec(300):
        real = {0: mpf(-3), 1: mpf(2) ** -1000, 2: 1 + mpf(2) ** -53 + mpf(2) ** -80,
                3: -(1 + mpf(2) ** -64 + mpf(2) ** -90), 5: mpf(10) ** -300, 7: -mpf(1) / 3}
        series = [TruncatedSeries(real, trunc_degree=8),
                  TruncatedSeries({**real, 4: mpc(1, 2) / 3}, trunc_degree=8)]
    prec, rnd = bits, round_nearest
    for f, dtype in zip(series, (np.float64, np.complex128)):
        with mp.workprec(bits):
            table = _CircleTable(f, parseval=False)
        want = np.array([mpc_to_complex(mpc_div_mpf(c._mpc_, mpc_abs(c._mpc_, prec, rnd), prec,
                                                    rnd), rnd=rnd) for _, c in f.items()])
        assert table.phase.dtype == dtype and np.array_equal(table.phase, want)
    assert (table.phase[2] != 1) == (bits == 53)


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


def _max_route_cases():
    """(series, radii) pairs on which the p = inf route is held to references."""
    rng = np.random.default_rng(5)
    poly = TruncatedSeries(
        {n: mpc(*rng.uniform(-1, 1, 2)) for n in range(0, 40, 3)}, trunc_degree=64)
    # comparable terms near degree 2048: |f| hinges on phases n t with n t ~ 1e4
    high = TruncatedSeries({n: mpc(*rng.uniform(-1, 1, 2)) for n in range(2000, 2048, 4)},
                           trunc_degree=2048)
    return [(poly, (mpf("0.3"), mpf(1), mpf(7))),
            (_sparse_high_degree(), (mpf("0.5"), mpf(30), mpf(1000), mpf(100000))),
            (high, (mpf(1), mpf(2)))]


def test_max_route_matches_mpf_maximum():
    # the kernel refines the highest peaks of its samples: within 1e-14 of
    # the global mpf maximum
    for f, radii in _max_route_cases():
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
    got = means_on_grid(f, [r], MeanParams(P_INF))[0].value
    assert abs(got - peak) <= peak * mpf("1e-14")


def test_lockstep_refine_matches_scalar_refine():
    # the block reducer's lockstep golden sections against the scalar passes run
    # one peak at a time, highest first, on the max-route cases: within 1e-15
    for f, radii in _max_route_cases() + [(exp_truncation(256), (mpf(3), mpf(40)))]:
        m = MeanParams(P_INF).points_for(f)
        got = means_on_grid(f, radii, MeanParams(P_INF))
        for r, res in zip(radii, got):
            shifts, samples, (_, degrees, scaled) = _one_row(f, r, m)
            want = mpf(_max_mean(samples[0], (degrees, scaled))) * mpmath.exp(shifts[0])
            assert abs(res.value - want) <= want * mpf("1e-15")


@pytest.mark.parametrize("p_s", ["1", "1.5", "3", "64"])
def test_quadrature_reducer_equals_per_row_formula(p_s):
    # one block of eight rows through the reducer, bit for bit the per-row formula
    f = _sparse_high_degree()
    m = MeanParams(1).points_for(f)
    radii = [mpf(10) ** (mpf(k) / 2) for k in range(-3, 5)]
    assert len(radii) == _BLOCK_ELEMENTS // m
    shifts, band = _CircleTable(f, parseval=False).block_terms(radii)
    samples = _circle_rows(len(radii), m, *band)
    got = _quadrature_means(shifts, samples, mpf(p_s))
    for shift, row, res in zip(shifts, samples, got):
        assert (res.value, res.richardson_err) == _quadrature_mean(shift, row, mpf(p_s))


@pytest.mark.parametrize("p_s", ["1", "1.5", "inf"])
def test_block_of_uneven_bands_equals_one_row_calls(p_s):
    # six radii of one block whose windows keep from under 100 to all 2401 terms:
    # each row equals its one-row call, so no sum groups a row's terms with
    # another row's, however their bands differ in width
    f = _dense_high_degree()
    params = MeanParams(P_INF if p_s == "inf" else mpf(p_s))
    m = params.points_for(f)
    radii = [mpf(100000), mpf("0.01"), mpf(30), mpf("0.1"), mpf(1000), mpf(1)]
    assert len(radii) == _BLOCK_ELEMENTS // m
    shifts, (rows, degrees, scaled) = _CircleTable(f, parseval=False).block_terms(radii)
    widths = np.bincount(rows)
    assert widths.max() >= 10 * widths.min()
    got = means_on_grid(f, radii, params)
    assert got == [means_on_grid(f, [r], params)[0] for r in radii]
    if params.p == P_INF:
        samples = _circle_rows(len(radii), m, rows, degrees, scaled)
        assert _max_means(shifts, samples, rows, degrees, scaled) == got


def test_grid_equals_per_radius_mean_p():
    f = _sparse_high_degree()
    radii = [mpf(0), mpf("0.02"), mpf(1), mpf(45), mpf(3000)]
    for p in (mpf(1), mpf("1.5"), mpf(2), mpf(64), P_INF):
        params = MeanParams(p)
        assert means_on_grid(f, radii, params) == [means_on_grid(f, [r], params)[0] for r in radii]


def test_batched_blocks_equal_per_radius_mean_p():
    # a grid spanning two inverse-FFT blocks, with r = 0 inside the first
    f = _sparse_high_degree()
    m = MeanParams(1).points_for(f)
    radii = [mpf(10) ** (mpf(k) / 4) for k in range(-8, 4)]
    radii.insert(3, mpf(0))
    assert _BLOCK_ELEMENTS // m < len(radii) - 1 < 2 * (_BLOCK_ELEMENTS // m)
    for p in (mpf(1), mpf("1.5"), P_INF):
        params = MeanParams(p)
        assert means_on_grid(f, radii, params) == [means_on_grid(f, [r], params)[0] for r in radii]
    for r in radii[4:]:
        shift, samples = _scaled_circle_per_coefficient(f, r, m)
        want = mpmath.exp(shift) * float(np.max(np.abs(samples)))
        assert abs(_sampled_max(f, r, m) - want) <= want * mpf("1e-14")


@pytest.mark.parametrize("m", [8 * 1031, 8 * 4097, 8 * 1024, 8 * 4081, 8 * 600 + 4, 4096])
def test_circle_rows_equal_one_length_m_transform(m):
    # above 4096 points with 8 | m the kernel splits the transform into
    # length-8 and length-m/8 steps only when m/8 has a prime factor of at
    # least 191 (1031 is prime, 4097 = 17 * 241); a smooth m/8 (1024 = 2^10,
    # 4081 = 7 * 11 * 53), 8 * 600 + 4 and 4096 take the one length-m
    # transform, bit for bit
    split = m in (8 * 1031, 8 * 4097)
    assert _has_large_factor(m // 8) == split
    rng = np.random.default_rng(m)
    n_rows, n_terms = 3, 2000
    rows = rng.integers(0, n_rows, n_terms)
    degrees = rng.integers(0, 3 * m, n_terms)  # most fold, some onto the same cell
    scaled = rng.standard_normal(n_terms) + 1j * rng.standard_normal(n_terms)
    coeffs = np.zeros((n_rows, m), dtype=np.complex128)
    np.add.at(coeffs, (rows, degrees % m), scaled)
    want = np.fft.ifft(coeffs, axis=-1, norm="forward")
    got = _circle_rows(n_rows, m, rows, degrees, scaled)
    assert got.shape == (n_rows, m)
    if not split:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("m", [8 * 1031, 8 * 4097])
def test_circle_rows_real_route_equals_length_m_transform(m):
    # float64 values on the split take five length-m/8 transforms and fill the
    # other three columns by conjugate symmetry: within 1e-14 of each row's
    # maximum of the one length-m transform and of the complex route, and each
    # row equal to its one-row call
    rng = np.random.default_rng(m + 1)
    n_rows, n_terms = 3, 2000
    rows = rng.integers(0, n_rows, n_terms)
    degrees = rng.integers(0, 3 * m, n_terms)
    scaled = rng.standard_normal(n_terms)
    coeffs = np.zeros((n_rows, m), dtype=np.complex128)
    np.add.at(coeffs, (rows, degrees % m), scaled)
    want = np.fft.ifft(coeffs, axis=-1, norm="forward")
    got = _circle_rows(n_rows, m, rows, degrees, scaled)
    complex_route = _circle_rows(n_rows, m, rows, degrees, scaled.astype(np.complex128))
    assert got.shape == (n_rows, m) and got.dtype == np.complex128
    for i in range(n_rows):
        top = np.max(np.abs(want[i]))
        assert np.max(np.abs(got[i] - want[i])) <= 1e-14 * top
        assert np.max(np.abs(got[i] - complex_route[i])) <= 1e-14 * top
        mine = rows == i
        assert np.array_equal(_circle_rows(1, m, 0, degrees[mine], scaled[mine])[0], got[i])


def test_real_series_blocks_equal_per_radius_mean_p():
    # a real series of prime degree 1031 samples m = 8 * 1031 points on the
    # split's real route; 20 radii with r = 0 inside fill two blocks.  Its
    # rotation e^{i/3} f has complex coefficients and the same |f|, so the
    # complex route gives the same means
    rng = random.Random(1031)
    coeffs = {n: mpf(rng.uniform(-1, 1)) / (1 + n) for n in rng.sample(range(1031), 60)}
    coeffs[1031] = mpf("0.002")
    f = TruncatedSeries(coeffs, trunc_degree=1031)
    rotated = TruncatedSeries({n: c * mpmath.expj(mpf(1) / 3) for n, c in coeffs.items()}, 1031)
    assert _CircleTable(f, parseval=False).phase.dtype == np.float64
    assert _CircleTable(rotated, parseval=False).phase.dtype == np.complex128
    m = MeanParams(1).points_for(f)
    assert m == 8 * 1031 and _has_large_factor(1031)
    radii = [mpf(10) ** (mpf(k) / 8) for k in range(-8, 11)]
    radii.insert(5, mpf(0))
    assert _BLOCK_ELEMENTS // m < len(radii) - 1 < 2 * (_BLOCK_ELEMENTS // m)
    for p in (mpf(1), mpf("1.5"), P_INF):
        params = MeanParams(p)
        got = means_on_grid(f, radii, params)
        assert got == [means_on_grid(f, [r], params)[0] for r in radii]
        for a, b in zip(got, means_on_grid(rotated, radii, params)):
            assert abs(b.value - a.value) <= a.value * mpf("1e-13")


def test_split_gate_is_largest_prime_factor_bound():
    def largest_prime_factor(n):
        return max((p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))),
                   default=1)

    for n in [1, 2, 190, 191, 382, 573, 4079, 4081, 4095, 4097, 4117, 2 * 181 * 181]:
        assert _has_large_factor(n) == (largest_prime_factor(n) >= 191)


def test_circle_max_on_split_transform_matches_evaluate_circle():
    # m = 8 * 1031 goes through the split kernel; degrees up to 3m fold
    m = 8 * 1031
    f = TruncatedSeries(
        {n: mpmath.expj(mpf(n) / 5) / (1 + n % 9) for n in (0, 1, 7, 1031, 4000, 8247, 8248,
                                                             9001, 20000)},
        trunc_degree=3 * m)
    r = mpf("0.9999")
    want = max(abs(v) for v in f.evaluate_circle(r, m))
    assert abs(_sampled_max(f, r, m) - want) <= want * mpf("1e-14")


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
    vals = [means_on_grid(f, [r], MeanParams(p))[0].value for p in _P_LADDER]
    slack = 1 + mpf("1e-12")
    for a, b in zip(vals, vals[1:]):
        assert a <= b * slack
    assert vals[5] <= vals[6] * slack  # M_1000 <= M_inf
    assert abs(_quadrature_p2(f, r) - vals[2]) <= vals[2] * mpf("1e-12")


_PRODUCTION_DEGREES = pytest.mark.parametrize("degree,split", [(4096, False), (4079, True)])


def _top_heavy_series(degree: int, split: bool):
    """40 random coefficients below ``degree`` and 4000 at it.  At r >= 1 the top
    term is at least 70 times the other 40 together, so |f|^p is smooth enough
    for the trapezoid rule on m = 8 * degree points to be exact in float64 (its
    aliasing is about 70^-8); at r = 1.25 the degrees below about 1000 fall
    outside the window.  ``split`` says whether m takes the split transform.
    Returns the coefficients and the series."""
    rng = random.Random(degree)
    coeffs = {n: mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
              for n in rng.sample(range(degree), 40)}
    coeffs[degree] = mpc(4000)
    f = TruncatedSeries(coeffs, trunc_degree=degree)
    assert _has_large_factor(MeanParams(1).points_for(f) // 8) == split
    return coeffs, f


@_PRODUCTION_DEGREES
def test_means_invariant_under_rotation_and_conjugation(degree, split):
    # f(z e^{i phi}) and conj f(conj z) take |f|'s values on every circle, so M_p
    # is unchanged; phi = 1/7 is no multiple of 2 pi / m, so the rotated samples
    # are not a permutation of f's
    coeffs, f = _top_heavy_series(degree, split)
    phi = mpf(1) / 7
    images = [TruncatedSeries({n: c * mpmath.expj(n * phi) for n, c in coeffs.items()}, degree),
              TruncatedSeries({n: mpmath.conj(c) for n, c in coeffs.items()}, degree)]
    radii = [mpf(1), mpf("1.01"), mpf("1.25")]
    for p in (mpf(1), mpf("1.5"), mpf(3), P_INF):
        want = means_on_grid(f, radii, MeanParams(p))
        for g in images:
            for a, b in zip(want, means_on_grid(g, radii, MeanParams(p))):
                assert abs(b.value - a.value) <= a.value * mpf("1e-13")


@_PRODUCTION_DEGREES
def test_means_dilation_monotonicity_and_hardy_convexity(degree, split):
    # M_p(f(lam .), r / lam) = M_p(f, r); M_p(f, r) does not fall as r grows; and
    # ln M_p is convex in ln r (Hardy), checked as a second difference on radii
    # equally spaced in ln r.  Nine radii fill three row blocks of at most four.
    coeffs, f = _top_heavy_series(degree, split)
    lam = mpf("1.7")
    dilated = TruncatedSeries({n: c * lam**n for n, c in coeffs.items()}, degree)
    radii = [mpmath.exp(k * mpmath.ln(mpf("1.25")) / 8) for k in range(9)]
    for p in (mpf(1), mpf("1.5"), mpf(3), P_INF):
        want = means_on_grid(f, radii, MeanParams(p))
        got = means_on_grid(dilated, [r / lam for r in radii], MeanParams(p))
        for a, b in zip(want, got):
            assert abs(b.value - a.value) <= a.value * mpf("1e-13")
        logs = [mpmath.ln(res.value) for res in want]
        assert all(a <= b for a, b in zip(logs, logs[1:]))
        assert all(a - 2 * b + c >= -mpf("1e-12") for a, b, c in zip(logs, logs[1:], logs[2:]))


class TestCircleMax:
    """The kernel's sampled circle maximum against the series module's working-precision one."""

    @pytest.fixture(scope="class")
    def hc_residuals(self):
        # the residuals Lambda^{m_k} f - Q_k whose coefficient sums verify_orbit_hits bounds
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
            assert abs(_sampled_max(res, 2, 512) - want) <= want * mpf("1e-14")

    @pytest.mark.parametrize("m", [1, 5, 16])
    def test_degrees_colliding_mod_m_are_summed(self, m):
        # every sample of z^3 + z^(3+m) is r^3 (1 + r^m) times a unit
        r = mpf("1.1")
        f = TruncatedSeries({3: 1, 3 + m: 1}, trunc_degree=64)
        want = r**3 + r ** (3 + m)
        assert abs(_sampled_max(f, r, m) - want) <= want * mpf("1e-15")
        assert abs(f.sup_on_disk(r, m) - want) <= want * mpf("1e-60")

    def test_degree_above_m_matches_sup_on_disk(self):
        f = TruncatedSeries(
            {n: mpmath.expj(mpf(n) / 3) / mpmath.factorial(n % 7) for n in range(0, 41, 3)},
            trunc_degree=64,
        )
        for r in (mpf("0.5"), mpf(1), mpf(3)):
            want = f.sup_on_disk(r, 16)
            assert abs(_sampled_max(f, r, 16) - want) <= want * mpf("1e-14")


# ---------------------------------------------------------------------------
# band-local lengths: quadrature rows sampled on their own band, not on m = 8 D


def _full_length_means(f, radii, p):
    """Every row on m = points_for(f) samples, blocks of _BLOCK_ELEMENTS // m rows
    through ``_circle_rows`` and the full-length reducer: the oracle of band-local rows."""
    m = MeanParams(1).points_for(f)
    table = _CircleTable(f, parseval=False)
    per_block = max(1, _BLOCK_ELEMENTS // m)
    out = []
    for start in range(0, len(radii), per_block):
        shifts, band = table.block_terms(radii[start:start + per_block])
        samples = _circle_rows(len(shifts), m, *band)
        out += (_max_means(shifts, samples, *band) if p == P_INF
                else _quadrature_means(shifts, samples, p))
    return out


def _band_case(name):
    """(series, radii): a built fhc series of prime degree 4079 on the sweep grid;
    on the oracle radii, the dense series of smooth degree 2400 = 2^5 3 5^2, or 60
    random real terms below the prime degree 1031."""
    if name == "fhc":
        f, _ = build_frequently_hypercyclic(DunklWeights(1, 4096), 2, RateEnvelope.log_growth(), 3)
        assert f.degree() == 4079
        return f, standard_r_grid(points=64)
    if name == "dense":
        return _dense_high_degree(), _ORACLE_RADII
    rng = random.Random(1031)
    coeffs = {n: mpf(rng.uniform(-1, 1)) / (1 + n) for n in rng.sample(range(1031), 60)}
    coeffs[1031] = mpf("0.002")
    return TruncatedSeries(coeffs, trunc_degree=1031), _ORACLE_RADII


_BAND_CASES = pytest.mark.parametrize("name", ["fhc", "dense", "random"])


def _mpf_pair(res):
    return res.value._mpf_, res.richardson_err._mpf_


@_BAND_CASES
def test_band_local_rows_match_full_length_oracle(name):
    # accepted rows within 1e-15 of the full-length value; rows that fall back
    # equal it bit for bit; both kinds occur on each series, and on the fhc one a
    # p = 3 row stands only at twice its first length
    f, radii = _band_case(name)
    m = MeanParams(1).points_for(f)
    shifts, terms = _CircleTable(f, parseval=False).block_terms(radii)
    first = _band_points(np.searchsorted(terms[0], np.arange(len(radii) + 1)), terms[1], m)
    retried = 0
    for p in (mpf(1), mpf("1.5"), mpf(3)):
        got, points = _band_local_means(shifts, terms, m, p)
        assert got == means_on_grid(f, radii, MeanParams(p))
        assert 0 < np.count_nonzero(points == m) < len(radii)
        retried += np.count_nonzero((points == 2 * first) & (points < m))
        for res, want, n in zip(got, _full_length_means(f, radii, p), points):
            if n == m:
                assert _mpf_pair(res) == _mpf_pair(want)
            else:
                assert abs(res.value - want.value) <= want.value * mpf("1e-15")
    assert retried or name != "fhc"


def test_max_route_and_smallest_grid_keep_full_length_bits():
    # every p = inf row takes m; a series with m = 4096 keeps m on every row at every p
    f, radii = _band_case("fhc")
    got = means_on_grid(f, radii, MeanParams(P_INF))
    want = _full_length_means(f, radii, P_INF)
    assert [_mpf_pair(r) for r in got] == [_mpf_pair(r) for r in want]
    rng = random.Random(64)
    poly = TruncatedSeries({n: mpf(rng.uniform(-1, 1)) for n in range(65)}, trunc_degree=64)
    radii = [mpf("0.5"), mpf(1), mpf(5), mpf(30)]
    for g in (poly, exp_truncation(256), _top_heavy_series(512, False)[1]):
        assert MeanParams(1).points_for(g) == 4096
        for p in (mpf(1), mpf("1.5"), mpf(3), P_INF):
            got = means_on_grid(g, radii, MeanParams(p))
            want = _full_length_means(g, radii, p)
            assert [_mpf_pair(r) for r in got] == [_mpf_pair(r) for r in want]


@_BAND_CASES
def test_band_length_keeps_discrete_parseval_exact(name):
    # p = 2 through the quadrature reducer at each accepted row's own length equals
    # Parseval: the m_W-point mean of |f|^2 is sum |c_n r^n|^2 only while no two of
    # the row's degrees fold onto one cell
    f, radii = _band_case(name)
    m = MeanParams(1).points_for(f)
    shifts, (rows, degrees, scaled) = _CircleTable(f, parseval=False).block_terms(radii)
    parseval = _CircleTable(f, parseval=True)
    lengths = set()
    for p in (mpf(1), mpf("1.5"), mpf(3)):
        _, points = _band_local_means(shifts, (rows, degrees, scaled), m, p)
        lengths |= {(i, int(n)) for i, n in enumerate(points) if n < m}
    assert len({n for _, n in lengths}) > 1
    for i, n in sorted(lengths):
        mine = rows == i
        samples = _circle_rows(1, n, 0, degrees[mine], scaled[mine])
        ((fine, _),) = _quadrature_floats(samples, 2)
        want = parseval.parseval(radii[i])
        assert abs(mpf(fine) * mpmath.exp(shifts[i]) - want) <= want * mpf("1e-13")


def _is_even_smooth(n):
    if n % 2:
        return False
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def test_band_points_rule():
    # span = largest minus smallest degree a row keeps, in any order; its length
    # is the smallest even 5-smooth number >= max(64, 8 (span + 1)), or m when
    # that is not below m
    m = 8 * 4079
    bands = [(5,), (3, 143), (0, 143), (0, 144), (10, 17), (10, 18), (50, 10, 30),
             (0, 4078), (4079, 0, 2000)]
    want = [64, 1152, 1152, 1200, 64, 72, 360, m, m]
    degrees = np.array([n for band in bands for n in band])
    starts = np.cumsum([0] + [len(band) for band in bands])
    assert _band_points(starts, degrees, m).tolist() == want
    spans = np.arange(4100)
    pairs = np.stack([np.full(len(spans), 7), spans + 7], axis=1).ravel()  # rows (7, 7 + span)
    got = _band_points(np.arange(0, len(pairs) + 1, 2), pairs, m)
    for span, n in zip(spans.tolist(), got.tolist()):
        need = max(64, 8 * (span + 1))
        first = next(k for k in range(need, 2 * need + 2) if _is_even_smooth(k))
        assert n == (first if first < m else m)


@given(
    st.sampled_from([64, 509, 512, 521, 600, 1031, 1200]),  # prime and smooth, both sides of 512
    st.dictionaries(st.integers(0, 1199),
                    st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-60, 0)),
                    min_size=1, max_size=24),
    st.booleans(),
    st.lists(st.sampled_from([0, 0.05, 0.7, 1, 1.3, 4, 30, 250, 2000, 1e5]), min_size=1,
             max_size=8),
    st.sampled_from(["1", "1.5", "3", "inf"]),
)
@settings(deadline=None, max_examples=40)
def test_sampled_rows_do_not_couple(degree, coeffs, real, radii, p_s):
    # each radius' result equals its one-radius call bit for bit, whatever the
    # other radii, their number and order: on the quadrature route, grouping rows
    # by band-local length, batching them and retrying the ones that fail; at
    # p = inf, batching the rows and refining their peaks in one lockstep golden
    # section.  Degrees 521 and 1031 take the split transform, 600 and 1200 the
    # one length-m transform, so both routes meet both sides of the split gate
    f = TruncatedSeries({n % degree: mpc(a, 0 if real else b) * mpf(10) ** e
                         for n, (a, b, e) in coeffs.items()} | {degree: mpc(1)}, degree)
    params = MeanParams(mpf(p_s))
    assert means_on_grid(f, radii, params) == [means_on_grid(f, [r], params)[0] for r in radii]


def test_band_local_memory_is_bounded_by_the_block_budget():
    # the fhc series at p = 1 over 512 radii: blocks of radii, batches of one
    # length, the retries and the fallback rows all stay within a few batch
    # budgets of _BLOCK_ELEMENTS complex samples (the peak measures about 2.7)
    f, _ = _band_case("fhc")
    radii = standard_r_grid(points=512)
    tracemalloc.start()
    try:
        means_on_grid(f, radii, MeanParams(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * _BLOCK_ELEMENTS * 16


# ---------------------------------------------------------------------------
# the sampled table keeps only the coefficients its call's radii can reach


@pytest.mark.parametrize("bits", [53, 256, 1024])
def test_log_abs_estimate_is_float64_accurate(bits):
    # real, imaginary and complex coefficients, parts of very different sizes,
    # tiny and huge ones: within 1e-15 relative (1e-11 nats at |ln|c|| = 1e4)
    with mp.workprec(bits):
        values = [mpc(3), mpc(-0.25), mpc(0, 2), mpc(0, -mpf(10) ** -4000), mpc(1, 1),
                  mpc(-3, 4), mpc(mpf(10) ** 300, mpf(10) ** -300), mpc(1e-20, -7),
                  mpc(mpf(2) ** -30000, -mpf(3) ** -9000), mpc(mpf(10) ** 4000, 1)]
        for c in values:
            want = mpmath.ln(abs(c))
            assert abs(_estimate_log_abs(c) - want) <= 1e-15 * max(1, abs(want)), c
        assert all(math.isnan(_estimate_log_abs(mpc(x, 1))) for x in (mpmath.inf, mpmath.nan))


def _reduced_terms_equal_full(f, radii):
    """The table of the coefficients ``radii`` can reach and the table of all of
    them give equal shifts and block terms, bit for bit; returns both tables."""
    radii = [mpf(r) for r in radii]
    full = _CircleTable(f, parseval=False)
    reduced = _CircleTable(f, parseval=False, radii=radii)
    (want_shifts, want), (got_shifts, got) = full.block_terms(radii), reduced.block_terms(radii)
    assert [s._mpf_ for s in got_shifts] == [s._mpf_ for s in want_shifts]
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert reduced.phase.dtype == full.phase.dtype
    assert set(reduced.n) <= set(full.n)
    return full, reduced


def _sweep_series(name):
    env = RateEnvelope.log_growth()
    if name == "fhc":
        return build_frequently_hypercyclic(DunklWeights(1, 4096), 2, env, 3)[0]
    if name == "hc":
        return build_hypercyclic(DunklWeights(0, 4096), env, 12)[0]
    return exp_truncation(256)


@pytest.mark.parametrize("name", ["fhc", "hc", "exp"])
def test_reduced_table_equals_full_table_on_sweep_series(name):
    # the growth sweep's series on 8-, 64- and 256-point grids; the fhc table
    # keeps 128 of its 427 coefficients on each
    f = _sweep_series(name)
    for points in (8, 64, 256):
        full, reduced = _reduced_terms_equal_full(f, standard_r_grid(points=points))
        if name == "fhc":
            assert (len(full.n), len(reduced.n)) == (427, 128)


@given(
    st.sampled_from([64, 509, 1031]),
    st.dictionaries(st.integers(0, 1030),
                    st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-900, 0)),
                    min_size=1, max_size=30),
    st.booleans(),
    st.lists(st.sampled_from([0.05, 0.7, 1, 1.3, 4, 30, 250, 2000, 1e5]), min_size=1,
             max_size=6),
)
@settings(deadline=None, max_examples=60)
def test_reduced_table_equals_full_table(degree, coeffs, real, radii):
    # magnitudes down to 1e-900 put coefficients on both sides of the window
    f = TruncatedSeries({n % degree: mpc(a, 0 if real else b) * mpf(10) ** e
                         for n, (a, b, e) in coeffs.items()} | {degree: mpc(1)}, degree)
    _reduced_terms_equal_full(f, radii)


def test_complex_series_with_a_real_reach_keeps_the_complex_route():
    # the one complex coefficient lies thousands of nats below the window at
    # every radius: the table drops it, but the series stays complex
    f = TruncatedSeries({0: mpf(3), 2: mpf(-1), 5: mpf("0.5"), 9: mpc(1, 1) * mpf(10) ** -3000},
                        trunc_degree=16)
    full, reduced = _reduced_terms_equal_full(f, [mpf("0.5"), mpf(2), mpf(10)])
    assert reduced.n == [0, 2, 5]
    assert full.phase.dtype == reduced.phase.dtype == np.complex128
    real = TruncatedSeries({n: f.coeff(n) for n in (0, 2, 5)}, trunc_degree=16)
    assert _CircleTable(real, parseval=False).phase.dtype == np.float64


def test_reach_keeps_the_window_and_its_edge():
    # at r = 1, coefficients 699.5, 700.5 and 701.5 nats below the top: the
    # table keeps the first two (700 nats plus the 1-nat guard), block_terms
    # the first alone
    f = TruncatedSeries({0: mpf(1), **{n: mpmath.exp(-mpf(x)) for n, x in
                                      ((3, "699.5"), (5, "700.5"), (7, "701.5"))}}, 16)
    _, reduced = _reduced_terms_equal_full(f, [mpf(1)])
    assert reduced.n == [0, 3, 5]
    assert reduced.block_terms([mpf(1)])[1][1].tolist() == [0, 3]
    # terms |c_n| r^n spaced 2e-14 nats apart across the 700-nat edge, where
    # the float64 estimates and the mpf logs that block_terms reads can order a
    # term differently against the edge: the guard keeps each one block_terms
    # keeps.  Without it, r = 0.5 and r = 2 lose terms
    for r in (mpf("0.5"), mpf(1), mpf(2)):
        edge = {10 + i: mpmath.exp(-700 - (i - 20) * mpf("2e-14") - (10 + i) * mpmath.ln(r))
                for i in range(41)}
        _, reduced = _reduced_terms_equal_full(TruncatedSeries({0: mpf(1), **edge}, 64), [r])
        kept = set(reduced.block_terms([r])[1][1].tolist())
        assert 0 < len(kept & set(edge)) < len(edge)
