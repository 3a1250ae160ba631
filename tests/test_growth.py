"""Growth machinery: envelopes, weight asymptotics, kernel bounds, profiles.

The band endpoints and sups below are golden values from the first
calibration run at 256-bit precision; the tests allow at most 1% drift.
"""

import math
import random
import time

import mpmath
import pytest
from mpmath import libmp, mp, mpf
from mpmath.libmp.libelefun import EXP_COSH_CUTOFF, exp_basecase, ln2_fixed, log_taylor_cached

from dunkldyn import dunkl, growth
from dunkldyn.dunkl import DunklWeights
from dunkldyn.growth import (
    ML_GUARD_BITS,
    R_GRID_MAX,
    R_GRID_MIN,
    RateEnvelope,
    _ml_peak_walk,
    barnes_asymptotic,
    growth_profile,
    lemma1_ratio,
    lemma3_on_grid,
    mittag_leffler,
    rate_exponent,
    standard_r_grid,
)
from dunkldyn.means import P_INF, conjugate_exponent
from dunkldyn.series import TruncatedSeries

# golden band endpoints (min, max) of lemma1_ratio over n <= 5000
LEMMA1_BAND = {
    "-0.49": ("2.3476286232", "2.53803678363"),
    "0": ("2.71828182846", "3.69452804947"),
    "0.5": ("2.43952253514", "3.69834513572"),
    "1": ("1.57090100817", "2.97563509973"),
    "3": ("0.0655065493588", "0.379937687303"),
}

# golden sup of lemma3_on_grid over r in [0.1, 200], 256 log points
LEMMA3_SUP = {
    ("1", "-0.49"): "0.987617399698",
    ("1", "0"): "0.797385413973",
    ("1", "1"): "1.58680696615",
    ("1", "3"): "37.1419492202",
    ("1.5", "-0.49"): "0.546459860107",
    ("1.5", "0"): "0.367272115386",
    ("1.5", "1"): "1.03104223419",
    ("1.5", "3"): "116.764615415",
    ("2", "-0.49"): "0.323700317725",
    ("2", "0"): "0.179419190876",
    ("2", "1"): "0.710544743982",
    ("2", "3"): "389.338349877",
}


class TestGridAndEnvelope:
    def test_standard_grid_shape(self):
        g = standard_r_grid()
        assert len(g) == 256
        assert g[0] == mpf("0.01") and abs(g[-1] - 400) < mpf("1e-60")
        assert all(b > a for a, b in zip(g, g[1:]))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            standard_r_grid(1, 1)
        with pytest.raises(ValueError):
            standard_r_grid(1, 2, points=1)

    def test_envelope_kinds(self):
        grid = standard_r_grid(points=32)
        RateEnvelope.log_growth().validate_on(grid)
        with pytest.raises(ValueError, match="not positive"):
            RateEnvelope(lambda r: r - 1).validate_on(grid)
        with pytest.raises(ValueError, match="not growing"):
            RateEnvelope(lambda r: 1 / (1 + r)).validate_on(grid)
        with pytest.raises(ValueError, match="not growing"):
            RateEnvelope(lambda r: mpf(3)).validate_on(grid)


def _grid_reference(r_min, r_max, points):
    """standard_r_grid's definition at the ambient precision, as raw tuples."""
    r_min, r_max = mpf(r_min), mpf(r_max)
    step = (mpmath.ln(r_max) - mpmath.ln(r_min)) / (points - 1)
    return [(r_min * mpmath.exp(i * step))._mpf_ for i in range(points)]


# (r_min, r_max, points): the default grid, long grids over wide and narrow ranges,
# the two-point grid, and one whose exponents pass 2^7
GRID_RANGES = [(R_GRID_MIN, R_GRID_MAX, 256), ("0.5", "1e6", 4096), ("1", "2", 1000),
               ("1e-5", "1e5", 777), ("3", "7", 2), ("1", "1e100", 300)]


def _counting_mpf_exp(monkeypatch):
    """Route growth's mpf_exp through a recorder; returns the list of its arguments."""
    calls = []

    def counting(x, prec, rnd):
        calls.append(x)
        return libmp.mpf_exp(x, prec, rnd)

    monkeypatch.setattr(growth, "mpf_exp", counting)
    return calls


class TestRadiusGrid:
    @pytest.mark.parametrize("bits", [8, 9, 12, 16, 24, 53, 64, 128, 256, 400, 512, 586, 587,
                                      600, 1000])
    def test_equals_its_mpf_definition(self, bits):
        with mp.workprec(bits):
            for r_min, r_max, points in GRID_RANGES:
                got = standard_r_grid(mpf(r_min), mpf(r_max), points)
                assert [r._mpf_ for r in got] == _grid_reference(r_min, r_max, points)

    def test_every_point_inside_the_band_goes_to_mpf_exp(self, monkeypatch):
        # a band as wide as the value itself leaves no point to the fixed-point rounding
        calls = _counting_mpf_exp(monkeypatch)
        monkeypatch.setattr(growth, "_EXP_ERR_BITS", mp.prec + 14)
        got = standard_r_grid(points=256)
        assert len(calls) == 1 + 256  # exp(step), then every point
        assert [r._mpf_ for r in got] == _grid_reference(R_GRID_MIN, R_GRID_MAX, 256)

    def test_few_points_fall_back_at_256_bits(self, monkeypatch):
        # a point falls back when exp(x) lies within 2^(6 - wp) relative of a rounding
        # midpoint, under 2^-7 of the points
        calls = _counting_mpf_exp(monkeypatch)
        points = fallbacks = 0
        for r_min, r_max, n in GRID_RANGES:
            before = len(calls)
            standard_r_grid(mpf(r_min), mpf(r_max), n)
            points, fallbacks = points + n, fallbacks + len(calls) - before - 1
        assert 0 < fallbacks < points / 128

    @pytest.mark.parametrize("bits, fast", [(8, True), (586, True), (587, False), (600, False),
                                            (1000, False)])
    def test_fixed_point_route_stops_at_the_exp_cosh_cutoff(self, monkeypatch, bits, fast):
        used = []
        route = growth._exp_multiples
        monkeypatch.setattr(growth, "_exp_multiples", lambda *a: used.append(a) or route(*a))
        with mp.workprec(bits):
            standard_r_grid(points=8)
        assert bool(used) == fast and EXP_COSH_CUTOFF == 600


def _mpf_exp_unrounded(x, prec):
    """(M, n, wp) for mpmath 1.3's mpf_exp(x, prec), x > 0, prec + 14 <= EXP_COSH_CUTOFF:
    its value before rounding is M 2^(n - wp) (libelefun.py lines 1152-1187)."""
    _, man, exp, bc = x
    mag, wp = bc + exp, prec + 14
    if mag > 1:
        offset = exp + wp + mag
        t = man << offset if offset >= 0 else man >> -offset
        n, t = divmod(t, ln2_fixed(wp + mag))
        t >>= mag
    else:
        offset = exp + wp
        t = man << offset if offset >= 0 else man >> -offset
        n = 0
    return exp_basecase(t, wp), int(n), wp


class TestMpfExpBound:
    def test_the_derivation_fits_the_band(self):
        # the figures of growth._exp_multiples' proof, recomputed at every wp it covers
        reduction = 0.25 + 2.1 / math.log(2) + 1  # (1 + 2.1 n + 2^mag) 2^-mag, mag >= 2
        worst = most_terms = 0
        for wp in range(15, EXP_COSH_CUTOFF + 1):
            r = int(wp**0.5)
            xi2 = 2.0 ** (2 - 2 * r)  # xi^2 < (2^(1 - r))^2
            # shortfall of each term: x2 < 1; a division by k: d / k + 1; a product
            # with x2: 1 + xi^2 d, plus 1 for its floor
            d, k, added, products = 1.0, 2, [], [1.0]
            for _ in range(40):
                d = d / k + 1
                added.append(d)
                d = d / (k + 1) + 1
                added.append(d)
                k += 2
                d = 2 + xi2 * d
                products.append(d)
            terms = (wp + r) / (r - 1)  # nonzero terms: xi^m / m! >= 2^-P needs m (r - 1) < P
            tail = 2 * max(products)  # terms after the loop stops, each ratio at most 1/2
            sum_short = max(added) * terms + tail + 1  # + 1: the floor of s1 xi
            basecase = sum_short + 1 + 1  # the r squarings, then the final shift
            worst = max(worst, basecase + reduction * 1.001)
            most_terms = max(most_terms, terms)
            assert max(added) < 1.53 and tail < 4.2
        assert most_terms < 28
        assert worst < 54 <= 2**growth._EXP_ERR_BITS

    def test_ln2_fixed_within_the_bound(self):
        # the reduction's divisor, whatever precision its memo was filled at
        with mp.workprec(3000):
            ln2 = mpmath.ln(2)
            for p in [*range(20, 700, 7), *range(700, 20, -13)]:
                assert abs(ln2_fixed(p) - ln2 * 2**p) < mpf("2.1")

    @pytest.mark.parametrize("bits", [8, 24, 53, 128, 256, 586])
    def test_unrounded_value_within_the_bound(self, bits):
        rng = random.Random(bits)
        for _ in range(400):
            man = rng.getrandbits(bits) | 1 << (bits - 1)
            x = libmp.from_man_exp(man, rng.randint(-bits - 12, 9 - bits), bits)
            m, n, wp = _mpf_exp_unrounded(x, bits)
            assert (libmp.from_man_exp(m, n - wp, bits, libmp.round_nearest)
                    == libmp.mpf_exp(x, bits, libmp.round_nearest))
            with mp.workprec(3 * wp):
                rel = abs(mpf(m) * mpf(2) ** (n - wp) / mpmath.exp(mp.make_mpf(x)) - 1)
                assert rel * mpf(2) ** wp < 54


class TestRateExponent:
    def test_hc(self):
        assert rate_exponent(2, mpf("0.5"), "hc") == mpf("1.5")

    def test_fhc_upper(self):
        # alpha + 1/2 + 1/(2 max(2, p)); at p = inf the 1/(2p) term vanishes
        assert rate_exponent(2, 0, "fhc_upper") == mpf("0.75")
        assert rate_exponent(mpf("1.5"), 0, "fhc_upper") == mpf("0.75")
        assert rate_exponent(4, 0, "fhc_upper") == mpf("0.5") + mpf(1) / 8
        assert rate_exponent(P_INF, 0, "fhc_upper") == mpf("0.5")

    def test_fhc_lower(self):
        assert rate_exponent(mpf("1.5"), 0, "fhc_lower") == mpf("0.5") + mpf(1) / 3
        assert rate_exponent(4, 0, "fhc_lower") == mpf("0.75")
        assert rate_exponent(P_INF, 0, "fhc_lower") == mpf("0.75")

    def test_validation(self):
        with pytest.raises(ValueError):
            rate_exponent(mpf("0.5"), 0, "hc")
        with pytest.raises(ValueError):
            rate_exponent(2, 0, "nope")


class TestLemma1Band:
    @pytest.mark.parametrize("alpha_s", sorted(LEMMA1_BAND))
    def test_band_holds_with_drift_tolerance(self, alpha_s):
        lo = mpf(LEMMA1_BAND[alpha_s][0])
        hi = mpf(LEMMA1_BAND[alpha_s][1])
        w = DunklWeights(mpf(alpha_s), 1200)
        ratios = [lemma1_ratio(n, w) for n in range(1201)]
        assert min(ratios) >= lo / mpf("1.01")
        assert max(ratios) <= hi * mpf("1.01")
        # reciprocal band is the reciprocal of the band
        recs = [1 / x for x in ratios]
        assert max(recs) <= (1 / lo) * mpf("1.01")

    def test_ratio_positive_and_finite(self):
        w = DunklWeights(mpf("0.25"), 800)
        for n in (0, 1, 17, 800):
            v = lemma1_ratio(n, w)
            assert mpmath.isfinite(v) and v > 0

    def test_rejects_negative_index(self):
        w = DunklWeights(0, 4)
        with pytest.raises(ValueError):
            lemma1_ratio(-1, w)

    @pytest.mark.parametrize("alpha_s", sorted(LEMMA1_BAND))
    def test_raw_loop_equals_mpf_operators(self, alpha_s):
        w = DunklWeights(mpf(alpha_s), 2500)
        assert ([lemma1_ratio(n, w)._mpf_ for n in range(2501)]
                == [_lemma1_mpf(n, w)._mpf_ for n in range(2501)])

    def test_shares_the_tables_logarithms(self, monkeypatch):
        # at alpha = 0 the table takes ln a for the even a <= 2500, and x = n + 1
        # adds the odd x <= 2501 and x = 1 under the same int keys: the 2501
        # values 1..2501 take 1250 Taylor sums (one per odd o in 3..2501) and
        # 12 mpf_log fallbacks (1 and the 11 powers of two up to 2048), not
        # one log each for the 1250 ratios plus the 2501 x
        sums, logs = [], []

        def taylor(x, prec):
            sums.append(x)
            return log_taylor_cached(x, prec)

        def counted(x, prec, rnd):
            logs.append(x)
            return libmp.mpf_log(x, prec, rnd)

        monkeypatch.setattr(dunkl, "log_taylor_cached", taylor)
        monkeypatch.setattr(dunkl, "mpf_log", counted)
        monkeypatch.setattr(growth, "mpf_log", counted, raising=False)
        w = DunklWeights(0, 2500)
        w.log_weight(2500)
        for n in range(2501):
            lemma1_ratio(n, w)
        assert len(sums) == len(set(sums)) == 1250
        assert len(logs) == len(set(logs)) == 12


def _lemma1_mpf(n, w):
    """lemma1_ratio in mpf operators: the oracle its raw-tuple loop must equal bit for bit."""
    x = n + w.alpha + 1
    return mpmath.exp(w.log_weight(n) + x - x * mpmath.ln(x))


class TestMittagLeffler:
    def test_small_argument_against_nsum_oracle(self):
        # independent summation engine at higher precision
        for ml_alpha, beta, theta in [(1, 0, 1), (2, 1, 1), (1, 1, 2)]:
            for z in (mpf("0.5"), mpf(3)):
                got = mittag_leffler(z, ml_alpha, theta, beta)
                with mp.workprec(320):
                    want = mpmath.nsum(
                        lambda n: z**n / ((n + theta) ** beta * mpmath.gamma(ml_alpha * n + 1)),
                        [0, mpmath.inf],
                    )
                assert abs(got - want) <= abs(want) * mpf(2) ** -200

    def test_beta_zero_theta_one_is_exp_like(self):
        # ml_alpha = 1, beta = 0: plain exponential series
        z = mpf("1.75")
        got = mittag_leffler(z, 1, 1, 0)
        assert abs(got - mpmath.exp(z)) < mpmath.exp(z) * mpf(2) ** -230

    @pytest.mark.parametrize("z", [0, -2, 1 + 1j, mpf("-2e6")], ids=["0", "-2", "1+1j", "-2e6"])
    @pytest.mark.parametrize("ml", [1, mpf("0.5")], ids=["1", "0.5"])
    def test_z_off_the_positive_axis_raises(self, ml, z):
        # there the terms cancel, and the sum is only defined for real z > 0
        with pytest.raises(ValueError, match="z must be real"):
            mittag_leffler(z, ml, 1, 0)

    def test_barnes_ratio_moderate_radius(self):
        # the asymptotic regime starts around r ~ 1e4
        for ml_alpha in (1, 2):
            for beta in (0, 1):
                r = mpf(10) ** 4
                ratio = mittag_leffler(r, ml_alpha, 1, beta) / barnes_asymptotic(
                    r, ml_alpha, 1, beta
                )
                assert mpf("0.95") <= ratio <= mpf("1.05")

    def test_barnes_formula_shape(self):
        # E ~ alpha^{beta-1} r^{-beta/alpha} e^{r^{1/alpha}}: check the log
        # beta = 1, ml_alpha = 2: prefactor 2^{beta-1} = 1, exponent r^{1/2}
        r = mpf(10) ** 4
        log_v = mpmath.ln(barnes_asymptotic(r, 2, 1, 1))
        log_want = -mpf(1) / 2 * mpmath.ln(r) + mpmath.sqrt(r)
        assert abs(log_v - log_want) < mpf("1e-40") + abs(log_want) * mpf("1e-30")


def _ml_from_zero(x, ml, theta, beta):
    """sum_n x^n / ((n+theta)^beta (ml n)!) at 512 bits, every term from n = 0."""
    with mp.workprec(512):
        x, theta, beta = mpf(x), mpf(theta), mpf(beta)
        past_peak = int(mpmath.root(x, ml) / ml) + 1
        g = mpf(1)  # x^n / (ml n)!
        total = mpf(0)
        n = 0
        while True:
            term = g / (n + theta) ** beta
            total += term
            # beyond the peak the terms fall geometrically at rate < 1
            if n > past_peak and term < total * mpf(2) ** -540:
                return total
            for i in range(1, ml + 1):
                g /= ml * n + i
            g *= x
            n += 1


def _ml_peak_walk_mpf(x, ml, theta, beta, tol):
    """_ml_peak_walk in mpf operators: the oracle its raw-tuple walk must equal bit for bit."""
    integer = isinstance(ml, int)
    cut = tol / 2 if integer else tol * mpf(2) ** -ML_GUARD_BITS
    with mp.workprec(mp.prec + ML_GUARD_BITS):
        n0 = int(mpmath.floor(mpmath.root(x, ml) / ml)) if integer else int(x ** (1 / ml) / ml)
        ln_x = mpmath.ln(x)

        def g_at(n):
            return mpmath.exp(n * ln_x - mpmath.loggamma(ml * n + 1))

        g0 = g_at(n0)
        weighted = beta != 0
        t0 = g0 / (n0 + theta) ** beta if weighted else g0
        weight_max = theta ** -beta if beta > 0 else None
        total = t0
        for up in (True, False):
            n, g, t = n0, g0, t0
            while up or n > 0:
                if integer:
                    falling = 1
                    for i in range(1, ml + 1):
                        falling *= ml * (n if up else n - 1) + i
                    rho = x / falling if up else falling / x
                    g_next = g * rho
                else:
                    g_next = g_at(n + 1 if up else n - 1)
                    rho = g_next / g
                n += 1 if up else -1
                t_next = g_next / (n + theta) ** beta if weighted else g_next
                if up and beta < 0:
                    rho = t_next / t
                cap = cut * total
                if rho < 1 and t_next < cap:
                    s = g * weight_max if not up and weight_max is not None else t
                    if s * rho < cap * (1 - rho):
                        break
                total += t_next
                g, t = g_next, t_next
    return +total


def _lemma3_mpf(radii, q, w):
    """lemma3_on_grid in mpf operators: the oracle its raw-tuple loop must equal bit for bit."""
    p = conjugate_exponent(q)
    a = rate_exponent(p, w.alpha, "fhc_upper")
    cutoff = mpf(2) ** (-mp.prec)
    ratios = []
    for r in radii:
        r_q = r**q
        term = total = mpf(1)
        for n in range(1, w.n_max + 1):
            term = term * r_q * mp.make_mpf(w._raw_ratio(n)) ** -q
            total += term
            if n > int(mpmath.floor(r)) and term < cutoff * total:
                break
        ratios.append(mpmath.exp(mpmath.ln(total) - q * (r - a * mpmath.ln(r))))
    return ratios


def _lemma3_exp_loop(r, q, w):
    """The per-term exp(q(n ln r - ln d_n)) sum of Lemma 3, cut off at 2^-prec."""
    p = conjugate_exponent(q)
    a = rate_exponent(p, w.alpha, "fhc_upper")
    ln_r = mpmath.ln(r)
    total = mpf(0)
    for n in range(w.n_max + 1):
        term = mpmath.exp(q * (n * ln_r - w.log_weight(n)))
        total += term
        if term < mpf(2) ** (-mp.prec) * total and n > r:
            return mpmath.exp(mpmath.ln(total) - q * (r - a * ln_r))
    raise AssertionError("reference weight table too short")


class TestPeakWalk:
    """The integer-order Mittag-Leffler sum on z > 0, summed from its peak."""

    @pytest.mark.parametrize("r_s", ["1e4", "4e4", "1e5"])
    @pytest.mark.parametrize("ml", [1, 2])
    def test_closed_forms(self, ml, r_s):
        # beta = 0, theta = 1: ml = 1 is e^r, ml = 2 is cosh(sqrt(r))
        r = mpf(r_s)
        got = mittag_leffler(r, ml, 1, 0)
        with mp.workprec(512):
            want = mpmath.exp(r) if ml == 1 else mpmath.cosh(mpmath.sqrt(r))
            assert abs(got - want) <= want * mpf(2) ** (16 - 256)

    @pytest.mark.parametrize("ml,theta_s,beta_s,r_s", [
        (1, "1", "1", "1e4"),
        (2, "1", "1", "1e5"),
        (2, "0.5", "2", "3e4"),
        (1, "1", "-1.5", "2000"),
        (1, "1", "-3000", "1000"),  # upward tail must use the actual term ratio
        (1, "1e-30", "1", "100"),
        (1, "1e-400", "1", "1000"),  # 1/theta at n = 0 matters below the peak
        (1, "1", "1", "0.25"),  # peak at n = 0: only the upward side walks
    ])
    def test_against_512_bit_sum_from_zero(self, ml, theta_s, beta_s, r_s):
        got = mittag_leffler(mpf(r_s), ml, mpf(theta_s), mpf(beta_s))
        want = _ml_from_zero(mpf(r_s), ml, mpf(theta_s), mpf(beta_s))
        assert abs(got - want) <= want * mpf(2) ** (16 - mp.prec)

    def test_fractional_order_closed_form_near_the_origin(self):
        # ml = 1/2: E(x) = e^(x^2) erfc(-x); the peak is near n = 18
        x = mpf(3)
        want = mpmath.exp(x**2) * mpmath.erfc(-x)
        got = mittag_leffler(x, mpf("0.5"), 1, 0)
        assert abs(got - want) <= want * mpf(2) ** -200

    @pytest.mark.parametrize("theta_s,x_s", [("1", "0.3"), ("1", "50"), ("0.5", "3e3"),
                                             ("1", "4e4")])
    @pytest.mark.parametrize("beta_s", ["-1", "0", "1"])
    @pytest.mark.parametrize("ml", [1, 2])
    def test_raw_walk_equals_mpf_operators(self, ml, beta_s, theta_s, x_s):
        x, theta, beta = mpf(x_s), mpf(theta_s), mpf(beta_s)
        tol = mpf(2) ** (16 - mp.prec)
        want = _ml_peak_walk_mpf(x, ml, theta, beta, tol)._mpf_
        assert _ml_peak_walk(x, ml, theta, beta, tol)._mpf_ == want
        assert mittag_leffler(x, ml, theta, beta)._mpf_ == want

    @pytest.mark.parametrize("theta_s,x_s", [("1", "0.3"), ("0.5", "20")])
    @pytest.mark.parametrize("beta_s", ["-1", "0", "1"])
    @pytest.mark.parametrize("ml_s", ["0.5", "1.5"])
    def test_raw_fractional_walk_equals_mpf_operators(self, ml_s, beta_s, theta_s, x_s):
        x, ml, theta, beta = mpf(x_s), mpf(ml_s), mpf(theta_s), mpf(beta_s)
        tol = mpf(2) ** (16 - mp.prec)
        want = _ml_peak_walk_mpf(x, ml, theta, beta, tol)._mpf_
        assert _ml_peak_walk(x, ml, theta, beta, tol)._mpf_ == want
        assert mittag_leffler(x, ml, theta, beta)._mpf_ == want

    @pytest.mark.parametrize("x_s", ["30", "60", "100", "300"])
    def test_fractional_order_meets_tol_on_the_positive_axis(self, x_s):
        # E(x) at ml = 1/2 is e^(x^2) erfc(-x), here at 900 bits; the terms
        # peak near n = 2 x^2, so x = 300 walks about 2e4 terms around n = 1.8e5
        x = mpf(x_s)
        got = mittag_leffler(x, mpf("0.5"), 1, 0)
        tol = mpf(2) ** (16 - mp.prec)
        with mp.workprec(900):
            want = mpmath.exp(x**2) * mpmath.erfc(-x)
            assert abs(got - want) <= want * tol


class TestFromZeroReach:
    """Sums whose walk from the peak would pass the term cap are refused at once."""

    @pytest.mark.parametrize("z,ml", [(1, "1e-9"), (2, "1e-9"), (mpf("1e4"), "0.5")])
    def test_rising_terms_raise(self, z, ml):
        with pytest.raises(ValueError, match="ml_alpha"):
            mittag_leffler(z, mpf(ml), 1, 0)

    @pytest.mark.parametrize("z,ml,beta", [(1, "1e-9", 1000), (3, "0.01", 200)])
    def test_steep_weight_does_not_hide_a_far_peak(self, z, ml, beta):
        # the (n + 1)^-beta weight makes the terms dip after n = 0; they rise
        # again toward peaks estimated at n = 1e9 and 5e49, so summing only the terms
        # of the dip would return 1
        with pytest.raises(ValueError, match="ml_alpha"):
            mittag_leffler(z, mpf(ml), 1, beta)

    def test_wide_peak_below_the_cap_is_refused_at_once(self):
        # the terms peak near n = 9.7e5, under the cap, but about 3e4 on either
        # side of it are needed: sized by the walk, not by the peak alone
        start = time.perf_counter()
        with pytest.raises(ValueError, match="ml_alpha"):
            mittag_leffler(mpf("1.0069"), mpf("0.001"), 1, 0)
        assert time.perf_counter() - start < 1

    def test_slow_fall_from_a_peak_at_zero_is_refused_at_once(self):
        # the terms peak at n = 0, where the curvature width is 0, and fall
        # like 0.9999^n: about 1.9e6 of them are above the cut
        start = time.perf_counter()
        with pytest.raises(ValueError, match="ml_alpha"):
            mittag_leffler(mpf("0.9999"), mpf("1e-9"), 1, 0)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("beta", [-1, 0, 2])
    def test_up_front_refusal_only_where_the_walk_passes_the_cap(self, monkeypatch, beta):
        # with the cap at 2000 terms, a sum falling from n = 0 that is refused
        # before its first step also passes the cap when walked
        monkeypatch.setattr(growth, "_WALK_MAX_TERMS", 2000)
        sure = growth._up_side_outruns_cap
        verdicts = []
        monkeypatch.setattr(growth, "_up_side_outruns_cap",
                            lambda *args: verdicts.append(sure(*args)) or verdicts[-1])
        for c in (0.005, 0.01, 0.015, 0.02, 0.025, 0.03, 0.04, 0.05):
            with mp.workprec(64):
                x = mpmath.exp(-mpf(c))
                try:
                    mittag_leffler(x, mpf("1e-9"), 1000, beta)
                except ValueError:
                    pass
                if verdicts[-1]:
                    with monkeypatch.context() as walk:
                        walk.setattr(growth, "_up_side_outruns_cap", lambda *args: False)
                        with pytest.raises(ValueError, match="ml_alpha"):
                            mittag_leffler(x, mpf("1e-9"), 1000, beta)
        assert verdicts[0] and not verdicts[-1]

    def test_settling_sums_still_run(self):
        # |z| < 1: the terms fall from n = 0 however small ml is
        got = mittag_leffler(mpf("0.5"), mpf("1e-9"), 1, 0)
        assert abs(got - 2) < mpf("1e-8")


class TestLemma3:
    @pytest.mark.parametrize("q_s,alpha_s", sorted(LEMMA3_SUP))
    def test_sup_golden_with_drift_tolerance(self, q_s, alpha_s):
        w = DunklWeights(mpf(alpha_s), 1024)
        grid = standard_r_grid(mpf("0.1"), mpf(200), 64)  # subsample of the full sweep
        sup = max(lemma3_on_grid(grid, mpf(q_s), w))
        golden = mpf(LEMMA3_SUP[(q_s, alpha_s)])
        assert sup <= golden * mpf("1.01")
        assert sup >= golden * mpf("0.2")  # subsampled sup stays commensurate

    def test_grid_equals_per_radius_ratio(self):
        # one table serves the sweep; descending radii extend it first for
        # the largest radius, and every value still matches its own call
        w = DunklWeights(mpf("0.5"), 700)
        radii = list(reversed(standard_r_grid(mpf("0.1"), mpf(200), 12)))
        for q in (mpf(1), mpf("1.5"), mpf(2)):
            assert lemma3_on_grid(radii, q, w) == [lemma3_on_grid([r], q, w)[0] for r in radii]

    @pytest.mark.parametrize("alpha_s", ["-0.49", "0", "3"])
    @pytest.mark.parametrize("q_s", ["1", "1.5", "2"])
    def test_against_512_bit_exp_loop(self, q_s, alpha_s):
        radii = standard_r_grid(mpf("0.1"), mpf(400), 6)
        w = DunklWeights(mpf(alpha_s), 1100)
        got = lemma3_on_grid(radii, mpf(q_s), w)
        with mp.workprec(512):
            w512 = DunklWeights(mpf(alpha_s), 1100)
            want = [_lemma3_exp_loop(r, mpf(q_s), w512) for r in radii]
        for g, v in zip(got, want):
            assert abs(g - v) <= v * mpf(2) ** (16 - 256)

    @pytest.mark.parametrize("alpha_s", ["-0.49", "0", "3"])
    @pytest.mark.parametrize("q_s", ["1", "1.5", "2"])
    def test_raw_loop_equals_mpf_operators(self, q_s, alpha_s):
        radii = standard_r_grid(mpf("0.1"), mpf(200), 16)
        w = DunklWeights(mpf(alpha_s), 900)
        want = [v._mpf_ for v in _lemma3_mpf(radii, mpf(q_s), w)]
        assert [v._mpf_ for v in lemma3_on_grid(radii, mpf(q_s), w)] == want

    @pytest.mark.parametrize("alpha_s", ["-0.49", "0", "0.5", "3"])
    @pytest.mark.parametrize("q_s", ["1", "1.5", "2"])
    def test_peak_walk_against_sum_from_zero(self, q_s, alpha_s):
        # at 64 bits the sums start at floor(r) from r = 178 on, at 256 bits from 710
        q = mpf(q_s)
        for prec, radii in ((64, standard_r_grid(200, 3000, 4)), (256, (mpf(1000), mpf(3000)))):
            with mp.workprec(prec):
                radii = [+r for r in radii]
                got = lemma3_on_grid(radii, q, DunklWeights(mpf(alpha_s), 0))
                # the oracle needs enough weights for every sum from zero to settle
                n_max = int(radii[-1] + 2 * mpmath.sqrt(radii[-1] * prec)) + prec + 2
                want = _lemma3_mpf(radii, q, DunklWeights(mpf(alpha_s), n_max))
                tol = mpf(2) ** (16 - prec)
                assert all(abs(g - v) <= v * tol for g, v in zip(got, want))

    def test_peak_term_keeps_its_guard_bits(self):
        # n0 ln r is about 2^17.6 at r = 2e4: taken at 64 bits, with no guard
        # bits, its rounding alone is three times the tolerance 2^(16-64)
        radii = [mpf(20000)]
        with mp.workprec(64):
            got = lemma3_on_grid(radii, mpf("1.5"), DunklWeights(mpf("0.5"), 0))[0]
            want = _lemma3_mpf(radii, mpf("1.5"), DunklWeights(mpf("0.5"), 22000))[0]
            assert abs(got - want) <= want * mpf(2) ** (16 - 64)

    def test_walk_past_the_cap_raises(self):
        # about 2 sqrt(4 ln2 256 r) = 1.7e9 terms at r = 1e15
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"r=1\.0e\+15"):
            lemma3_on_grid([mpf(1), mpf("1e15")], 1, DunklWeights(0, 0))
        assert time.perf_counter() - start < 1

    def test_q_domain(self):
        w = DunklWeights(0, 64)
        with pytest.raises(ValueError):
            lemma3_on_grid([mpf(1)], mpf("2.5"), w)
        with pytest.raises(ValueError):
            lemma3_on_grid([mpf(-1)], 1, w)


class TestGrowthProfile:
    def test_polynomial_satisfies_any_positive_envelope(self):
        f = TruncatedSeries({0: 1, 2: 5}, trunc_degree=8)
        env = RateEnvelope.log_growth()
        grid = standard_r_grid(mpf("0.1"), mpf(50), 32)
        prof = growth_profile(f, 2, mpf(1), env, grid)
        # 5 r^2 can top phi(r) e^r at middle radii, but e^r wins from some
        # grid index on, which is exactly what satisfied_from records
        assert prof.satisfied_from is not None
        assert prof.ratios[-1] < 1

    def test_violation_at_grid_end_reported(self):
        # constant function against a 1e-30 envelope on a short grid: the
        # ratio still exceeds 1 at the last point, so nothing is satisfied
        f = TruncatedSeries({0: 1}, trunc_degree=8)

        def env(r):  # growth_profile only calls its envelope
            return mpf("1e-30")

        grid = standard_r_grid(mpf("0.1"), mpf(1), 8)
        prof = growth_profile(f, 2, mpf(0), env, grid)
        assert prof.satisfied_from is None

    def test_grid_validation(self):
        f = TruncatedSeries({0: 1}, trunc_degree=4)
        env = RateEnvelope.log_growth()
        with pytest.raises(ValueError):
            growth_profile(f, 2, 1, env, [2, 1])
